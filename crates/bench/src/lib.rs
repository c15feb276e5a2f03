//! Experiment harness for the NURD reproduction.
//!
//! One binary, `repro`, regenerates every table and figure of the paper
//! and the §7 ablations, one subcommand each (see `ARCHITECTURE.md`,
//! "Paper section → code map"); this library holds what the subcommands
//! share: the one flag parser, suite construction, and one evaluator that
//! replays a predictor factory over a suite on a
//! [`nurd_runtime::ThreadPool`].
//!
//! Two criterion microbenchmarks live under `benches/` (the ML
//! primitives and the scoring kernel); this crate's `README.md` documents
//! them.

#![forbid(unsafe_code)]

use std::str::FromStr;

use nurd_baselines::MethodSpec;
use nurd_data::{JobTrace, OnlinePredictor};
use nurd_runtime::ThreadPool;
use nurd_sim::{
    execute_actions, replay_job, MethodSummary, MitigationSimConfig, ReplayConfig, ReplayOutcome,
};
use nurd_trace::{SuiteConfig, TraceStyle};

/// Harness-wide options parsed from the command line.
#[derive(Debug, Clone)]
pub struct HarnessOptions {
    /// Which trace style to imitate; `None` (no `--trace`) is Google, or
    /// both styles for a subcommand that covers both (`table3_accuracy`).
    pub trace: Option<TraceStyle>,
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
    /// Threads of the pool that replays the jobs of a suite; `None` (no
    /// `--threads`) replays on [`nurd_runtime::global`], one per core.
    pub threads: Option<usize>,
}

impl Default for HarnessOptions {
    fn default() -> Self {
        HarnessOptions {
            trace: None,
            jobs: 40,
            tasks: (120, 300),
            checkpoints: 24,
            seed: 0x6001,
            methods: None,
            threads: None,
        }
    }
}

/// Parses `value`, the argument of `flag`.
fn number<T: FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} takes an integer, not {value:?}"))
}

impl HarnessOptions {
    /// Parses `--trace google|alibaba`, `--jobs N`, `--tasks A:B`,
    /// `--checkpoints N`, `--seed N`, `--methods A,B,C`, `--threads N`.
    ///
    /// # Errors
    ///
    /// A usage message for an unknown flag, a flag without a value, a
    /// malformed value, `--jobs 0` (every mean divides by the job count),
    /// or a `--methods` name that no registry row has.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut opts = HarnessOptions::default();
        for pair in args.chunks(2) {
            let [flag, value] = pair else {
                return Err(format!("flag {} needs a value", pair[0]));
            };
            match flag.as_str() {
                "--trace" => {
                    opts.trace = Some(match value.as_str() {
                        "google" => TraceStyle::Google,
                        "alibaba" => TraceStyle::Alibaba,
                        other => {
                            return Err(format!("unknown trace style {other} (google|alibaba)"))
                        }
                    });
                }
                "--jobs" => opts.jobs = number(flag, value)?,
                "--tasks" => {
                    let (a, b) = value.split_once(':').ok_or_else(|| {
                        format!("--tasks takes a range like 120:300, not {value:?}")
                    })?;
                    opts.tasks = (number(flag, a)?, number(flag, b)?);
                }
                "--checkpoints" => opts.checkpoints = number(flag, value)?,
                "--seed" => opts.seed = number(flag, value)?,
                "--methods" => {
                    opts.methods = Some(value.split(',').map(|s| s.trim().to_string()).collect());
                }
                "--threads" => opts.threads = Some(number(flag, value)?),
                other => return Err(format!("unknown flag {other}")),
            }
        }
        if opts.jobs == 0 {
            return Err("--jobs must be at least 1".into());
        }
        let names: Vec<&str> = nurd_baselines::registry().iter().map(|m| m.name).collect();
        for name in opts.methods.iter().flatten() {
            if !names.iter().any(|n| n.eq_ignore_ascii_case(name)) {
                return Err(format!(
                    "unknown method {name:?} in --methods; the {} methods are {}",
                    names.len(),
                    names.join(", ")
                ));
            }
        }
        Ok(opts)
    }

    /// The trace style of the suite (Google unless `--trace` says otherwise).
    #[must_use]
    pub fn style(&self) -> TraceStyle {
        self.trace.unwrap_or(TraceStyle::Google)
    }

    /// Human-readable trace label for output headers.
    #[must_use]
    pub fn style_label(&self) -> &'static str {
        match self.style() {
            TraceStyle::Google => "Google",
            TraceStyle::Alibaba => "Alibaba",
        }
    }

    /// Builds the evaluation suite for these options.
    #[must_use]
    pub fn build_suite(&self) -> Vec<JobTrace> {
        let cfg = SuiteConfig::new(self.style())
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
        let alpha = match self.style() {
            TraceStyle::Google => 0.20,
            TraceStyle::Alibaba => 0.40,
        };
        let mut all = nurd_baselines::registry_with_nurd_alpha(alpha);
        if let Some(filter) = &self.methods {
            all.retain(|m| filter.iter().any(|f| f.eq_ignore_ascii_case(m.name)));
        }
        all
    }

    /// Builds the suite and replays every selected method over it under
    /// the default protocol, reporting each method's metrics on stderr.
    #[must_use]
    pub fn evaluate(&self, pool: &ThreadPool) -> (Vec<JobTrace>, Vec<MethodResult>) {
        eprintln!(
            "[repro] {} suite: {} jobs, tasks {}..{}, {} checkpoints",
            self.style_label(),
            self.jobs,
            self.tasks.0,
            self.tasks.1,
            self.checkpoints
        );
        let jobs = self.build_suite();
        let results = self
            .selected_methods()
            .iter()
            .map(|spec| {
                let outcomes =
                    replay_suite(pool, &jobs, &ReplayConfig::default(), |job| spec.build(job));
                let summary = summarize(&outcomes);
                eprintln!(
                    "  {:8} tpr={:.2} fpr={:.2} f1={:.3}",
                    spec.name, summary.tpr, summary.fpr, summary.f1
                );
                MethodResult {
                    name: spec.name,
                    family: spec.family.label(),
                    summary,
                    outcomes,
                }
            })
            .collect();
        (jobs, results)
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

/// Replays every job of `jobs` against a fresh predictor `build` makes for
/// it (one per job, as the paper trains one model per job), one pool task
/// per job.
/// The outcomes come back in job order, so a mean over them is summed in
/// the same order, and is bit-identical, at every thread count.
pub fn replay_suite(
    pool: &ThreadPool,
    jobs: &[JobTrace],
    replay: &ReplayConfig,
    build: impl Fn(&JobTrace) -> Box<dyn OnlinePredictor> + Sync,
) -> Vec<ReplayOutcome> {
    let mut outcomes: Vec<Option<ReplayOutcome>> = jobs.iter().map(|_| None).collect();
    pool.scope(|s| {
        for (job, slot) in jobs.iter().zip(&mut outcomes) {
            let build = &build;
            s.spawn(move || *slot = Some(replay_job(job, build(job).as_mut(), replay)));
        }
    });
    outcomes.into_iter().flatten().collect()
}

/// The Table 3 metrics of a suite's outcomes.
#[must_use]
pub fn summarize(outcomes: &[ReplayOutcome]) -> MethodSummary {
    let confusions: Vec<_> = outcomes.iter().map(|o| o.confusion).collect();
    MethodSummary::from_confusions(&confusions)
}

/// Mean F1 of the cumulative flagged set at ten normalized-time deciles
/// (Figures 2–3).
#[must_use]
pub fn mean_deciles(outcomes: &[ReplayOutcome]) -> [f64; 10] {
    let mut series = [0.0f64; 10];
    for outcome in outcomes {
        for (s, v) in series.iter_mut().zip(outcome.f1_at_normalized_times(10)) {
            *s += v;
        }
    }
    for s in &mut series {
        *s /= outcomes.len() as f64;
    }
    series
}

/// Mean job-completion-time reduction (%) over every machine count of
/// `machines` (`None`: unlimited machines) and every job (Figures 4–9):
/// each flagged task is killed and relaunched at its flag.
#[must_use]
pub fn mean_jct_reduction(
    jobs: &[JobTrace],
    outcomes: &[ReplayOutcome],
    machines: &[Option<usize>],
) -> f64 {
    let mut total = 0.0;
    for &machines in machines {
        let sim = MitigationSimConfig {
            machines,
            ..MitigationSimConfig::default()
        };
        for (job, outcome) in jobs.iter().zip(outcomes) {
            total += execute_actions(job, outcome.threshold, &outcome.relaunches(job), &sim)
                .jct_reduction_percent();
        }
    }
    total / (jobs.len() * machines.len()) as f64
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

    fn parse(args: &str) -> Result<HarnessOptions, String> {
        let args: Vec<String> = args.split_whitespace().map(String::from).collect();
        HarnessOptions::parse(&args)
    }

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
        let opts = parse("--methods nurd,GBTR").unwrap();
        let methods = opts.selected_methods();
        assert_eq!(methods.len(), 2);
    }

    #[test]
    fn parse_reads_every_flag() {
        let opts =
            parse("--trace alibaba --jobs 3 --tasks 40:60 --checkpoints 8 --seed 9 --threads 1")
                .unwrap();
        assert_eq!(opts.trace, Some(TraceStyle::Alibaba));
        assert_eq!((opts.jobs, opts.tasks, opts.checkpoints), (3, (40, 60), 8));
        assert_eq!((opts.seed, opts.threads), (9, Some(1)));
        assert_eq!(parse("").unwrap().style(), TraceStyle::Google);
    }

    #[test]
    fn an_unknown_method_name_is_a_usage_error_listing_the_registry() {
        let err = parse("--trace google --jobs 3 --methods NRUD").unwrap_err();
        assert!(err.contains("\"NRUD\""), "{err}");
        for spec in nurd_baselines::registry() {
            assert!(err.contains(spec.name), "{err} lacks {}", spec.name);
        }
        assert!(
            parse("--methods NURD,").is_err(),
            "an empty name matches no row"
        );
    }

    #[test]
    fn zero_jobs_is_a_usage_error() {
        let err = parse("--jobs 0 --methods NURD").unwrap_err();
        assert!(err.contains("--jobs"), "{err}");
    }

    #[test]
    fn malformed_flags_are_usage_errors() {
        for args in [
            "--jobs",
            "--jobs many",
            "--tasks 40",
            "--tasks 40:x",
            "--trace azure",
            "--verbose 1",
        ] {
            assert!(parse(args).is_err(), "{args} parsed");
        }
    }

    #[test]
    fn evaluate_method_covers_every_job() {
        let opts = parse("--jobs 3 --tasks 40:60 --checkpoints 8 --methods GBTR").unwrap();
        let (jobs, results) = opts.evaluate(&ThreadPool::new(2));
        assert_eq!((jobs.len(), results.len()), (3, 1));
        assert_eq!(results[0].outcomes.len(), 3);
        assert_eq!(results[0].summary.jobs, 3);
    }

    #[test]
    fn replay_suite_keeps_job_order_at_every_thread_count() {
        let opts = HarnessOptions {
            jobs: 3,
            tasks: (40, 60),
            checkpoints: 8,
            ..HarnessOptions::default()
        };
        let jobs = opts.build_suite();
        let methods = nurd_baselines::registry();
        let nurd = methods.iter().find(|m| m.name == "NURD").unwrap();
        let replay = ReplayConfig::default();
        let one = replay_suite(&ThreadPool::new(1), &jobs, &replay, |job| nurd.build(job));
        let two = replay_suite(&ThreadPool::new(2), &jobs, &replay, |job| nurd.build(job));
        assert_eq!(one.len(), 3);
        assert_eq!(one, two);
        assert_eq!(summarize(&one).jobs, 3);
    }

    #[test]
    fn histogram_renders_all_bins() {
        let lat = vec![1.0, 2.0, 3.0, 10.0];
        let h = ascii_histogram(&lat, 5, 20);
        assert_eq!(h.lines().count(), 5);
        assert!(h.contains('#'));
    }
}
