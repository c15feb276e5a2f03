//! `repro`: one command for every table, figure and ablation of the paper.
//!
//! ```sh
//! cargo run --release -p nurd-bench --bin repro -- <subcommand> [flags]
//! ```
//!
//! The suite subcommands (Table 3, Figures 2–9) replay the suite the flags
//! of [`HarnessOptions::parse`] describe; the others replay a fixed suite
//! and reject any flag. Every suite is replayed on one
//! [`nurd_runtime::ThreadPool`], one task per job, and its outcomes are
//! reduced in job order, so the output is the same at every `--threads`.

use nurd_bench::{
    ascii_histogram, mean_deciles, mean_jct_reduction, replay_suite, summarize, HarnessOptions,
    MethodResult,
};
use nurd_core::{DonorModel, NurdConfig, NurdPredictor};
use nurd_data::JobTrace;
use nurd_runtime::ThreadPool;
use nurd_sim::{ReplayConfig, ReplayOutcome};
use nurd_trace::{StragglerCause, SuiteConfig, TraceStyle, ALIBABA_FEATURES, GOOGLE_FEATURES};

const USAGE: &str = "usage: repro <subcommand> [flags]

Over the suite the flags describe:
  table3_accuracy      Table 3: TPR/FPR/FNR/F1 of every method (both traces without --trace)
  fig2_f1_timeline     Figures 2-3: F1 at ten normalized times
  fig4_jct_unlimited   Figures 4-5: JCT reduction, unlimited machines
  fig6_jct_machines    Figures 6-7: JCT reduction against the machine count
  fig8_jct_avg         Figures 8-9: JCT reduction averaged over machine counts
flags: --trace google|alibaba  --jobs N  --tasks A:B  --checkpoints N
       --seed N  --methods A,B,C  --threads N

Over a fixed suite, no flags:
  table1_features  fig1_latency_dist  ext_transfer  ablation_calibration
  ablation_causes  ablation_epsilon  ablation_refit  ablation_threshold
  ablation_warmup";

/// What a subcommand runs: over the suite its flags describe, or over a
/// fixed suite of its own.
#[derive(Clone, Copy)]
enum Body {
    Suite(fn(&HarnessOptions, &ThreadPool)),
    Fixed(fn(&ThreadPool)),
}

const COMMANDS: [(&str, Body); 14] = [
    ("table1_features", Body::Fixed(table1_features)),
    ("table3_accuracy", Body::Suite(table3_accuracy)),
    ("fig1_latency_dist", Body::Fixed(fig1_latency_dist)),
    ("fig2_f1_timeline", Body::Suite(fig2_f1_timeline)),
    ("fig4_jct_unlimited", Body::Suite(fig4_jct_unlimited)),
    ("fig6_jct_machines", Body::Suite(fig6_jct_machines)),
    ("fig8_jct_avg", Body::Suite(fig8_jct_avg)),
    ("ext_transfer", Body::Fixed(ext_transfer)),
    ("ablation_calibration", Body::Fixed(ablation_calibration)),
    ("ablation_causes", Body::Fixed(ablation_causes)),
    ("ablation_epsilon", Body::Fixed(ablation_epsilon)),
    ("ablation_refit", Body::Fixed(ablation_refit)),
    ("ablation_threshold", Body::Fixed(ablation_threshold)),
    ("ablation_warmup", Body::Fixed(ablation_warmup)),
];

/// The ten machine counts of Figures 6–9. The paper sweeps 100..=1000
/// machines against jobs of thousands of tasks; here the counts are spaced
/// evenly up to the suite's largest job, so at most the last one gives
/// every task of every job a machine of its own.
fn machine_counts(jobs: &[JobTrace]) -> [usize; 10] {
    let largest = jobs.iter().map(JobTrace::task_count).max().unwrap_or(1);
    std::array::from_fn(|k| ((k + 1) * largest / 10).max(1))
}

/// Resolves `<subcommand> [flags]` to the subcommand's body and options.
fn command(args: &[String]) -> Result<(Body, HarnessOptions), String> {
    let (name, flags) = args.split_first().ok_or("missing subcommand")?;
    let (_, body) = COMMANDS
        .into_iter()
        .find(|(n, _)| *n == name.as_str())
        .ok_or_else(|| format!("unknown subcommand {name}"))?;
    if matches!(body, Body::Fixed(_)) && !flags.is_empty() {
        return Err(format!(
            "{name} replays a fixed suite and takes no flags, not {}",
            flags.join(" ")
        ));
    }
    Ok((body, HarnessOptions::parse(flags)?))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (body, opts) = command(&args).unwrap_or_else(|err| {
        eprintln!("repro: {err}\n\n{USAGE}");
        std::process::exit(2)
    });
    let own = opts.threads.map(ThreadPool::new);
    let pool = own.as_ref().unwrap_or_else(|| nurd_runtime::global());
    match body {
        Body::Suite(run) => run(&opts, pool),
        Body::Fixed(run) => run(pool),
    }
}

/// "Figure N (… trace)": the Google figure of a pair, or the Alibaba one
/// after it.
fn figure(opts: &HarnessOptions, google: u32) -> String {
    let n = google + u32::from(opts.style() == TraceStyle::Alibaba);
    format!("Figure {n} ({} trace)", opts.style_label())
}

/// Tables 1 and 2 of the paper: the feature schemas of the two traces.
fn table1_features(_: &ThreadPool) {
    let table = |title: &str, features: &[(&str, &str)]| {
        println!("{title}");
        println!("{:-^60}", "");
        println!("{:10} Description", "Feature");
        println!("{:-^60}", "");
        for (name, description) in features {
            println!("{name:10} {description}");
        }
    };
    table(
        "Table 1. Task features used in the Google Traces.",
        &GOOGLE_FEATURES,
    );
    println!();
    table(
        "Table 2. Instance features used in the Alibaba Traces.",
        &ALIBABA_FEATURES,
    );
}

/// Table 3: TPR/FPR/FNR/F1 averaged over all jobs, for every method. With
/// no `--trace`, both traces are evaluated (the full Table 3).
fn table3_accuracy(opts: &HarnessOptions, pool: &ThreadPool) {
    let styles = opts
        .trace
        .map_or(vec![TraceStyle::Google, TraceStyle::Alibaba], |s| vec![s]);
    for style in styles {
        let opts = HarnessOptions {
            trace: Some(style),
            ..opts.clone()
        };
        let (jobs, results) = opts.evaluate(pool);
        println!(
            "\nTable 3 ({} trace, {} jobs). Higher is better for TPR and F1; lower for FPR and FNR.",
            opts.style_label(),
            jobs.len()
        );
        println!("{:-^78}", "");
        println!(
            "{:32} {:8} {:>6} {:>6} {:>6} {:>6}",
            "Family", "Method", "TPR", "FPR", "FNR", "F1"
        );
        println!("{:-^78}", "");
        let best_f1 = results
            .iter()
            .map(|r| r.summary.f1)
            .fold(f64::NEG_INFINITY, f64::max);
        let mut last_family = "";
        for r in &results {
            let family = if r.family == last_family {
                ""
            } else {
                r.family
            };
            last_family = r.family;
            let marker = if (r.summary.f1 - best_f1).abs() < 1e-12 {
                " *"
            } else {
                ""
            };
            let s = &r.summary;
            println!(
                "{:32} {:8} {:6.2} {:6.2} {:6.2} {:6.2}{marker}",
                family, r.name, s.tpr, s.fpr, s.fnr, s.f1
            );
        }
        println!("{:-^78}", "");
        println!("(* best F1)");
        println!();
    }
}

/// Figure 1: normalized latency histograms for one long-tailed and one
/// close-tailed job, with the p90 threshold and the half-maximum marked.
fn fig1_latency_dist(_: &ThreadPool) {
    println!("Figure 1. Latency distributions for two generated jobs.\n");
    for (id, fraction, label) in [
        (0, 1.0, "long-tailed family"),
        (1, 0.0, "close-tailed family"),
    ] {
        // One suite per family so both Figure 1 shapes appear.
        let cfg = SuiteConfig::new(TraceStyle::Google)
            .with_jobs(1)
            .with_task_range(300, 400)
            .with_checkpoints(20)
            .with_long_tail_fraction(fraction)
            .with_seed(0xF161);
        let job = nurd_trace::generate_job(&cfg, id);
        let max = job.max_latency();
        let threshold = job.straggler_threshold(0.9);
        println!("Job {} ({label})", job.job_id());
        println!(
            "  tasks={} threshold(p90)={:.3} (normalized), half-max=0.5 → {}",
            job.task_count(),
            threshold / max,
            if threshold < 0.5 * max {
                "threshold BELOW half max (Figure 1 left)"
            } else {
                "threshold ABOVE half max (Figure 1 right)"
            }
        );
        let scaled: Vec<f64> = job.latencies().iter().map(|l| l / max * max).collect();
        print!("{}", ascii_histogram(&scaled, 25, 50));
        println!();
    }
}

/// One row of a decile table: a label, then ten right-aligned cells.
fn decile_row(label: &str, width: usize, cells: impl IntoIterator<Item = String>) {
    print!("{label:width$}");
    for cell in cells {
        print!(" {cell:>5}");
    }
    println!();
}

/// The decile table's header cells: 0.1 … 1.0.
fn decile_header() -> impl Iterator<Item = String> {
    (1..=10).map(|p| format!("{:.1}", f64::from(p) / 10.0))
}

/// Mean F1 at the ten deciles, two decimals each.
fn decile_cells(outcomes: &[ReplayOutcome]) -> impl Iterator<Item = String> {
    mean_deciles(outcomes)
        .into_iter()
        .map(|v| format!("{v:.2}"))
}

/// Figures 2 and 3: F1 of the cumulative flagged set at ten normalized
/// time checkpoints (`--trace google` = Figure 2, `--trace alibaba` =
/// Figure 3).
fn fig2_f1_timeline(opts: &HarnessOptions, pool: &ThreadPool) {
    let (jobs, results) = opts.evaluate(pool);
    println!(
        "\n{}: F1 at normalized time checkpoints (averaged over {} jobs).",
        figure(opts, 2),
        jobs.len()
    );
    decile_row("Method", 8, decile_header());
    println!("{:-^69}", "");
    for r in &results {
        decile_row(r.name, 8, decile_cells(&r.outcomes));
    }
}

/// Figures 4–5 and 8–9: one mean JCT reduction per method over the
/// machine counts `machines`.
fn jct_table(
    opts: &HarnessOptions,
    google: u32,
    what: &str,
    (jobs, results): (Vec<JobTrace>, Vec<MethodResult>),
    machines: &[Option<usize>],
) {
    println!("\n{}: {what} ({} jobs).", figure(opts, google), jobs.len());
    println!("{:8} {:>12}", "Method", "Reduction(%)");
    println!("{:-^22}", "");
    for r in &results {
        let reduction = mean_jct_reduction(&jobs, &r.outcomes, machines);
        println!("{:8} {reduction:12.1}", r.name);
    }
}

/// Figures 4 and 5: average JCT reduction with unlimited machines
/// (Algorithm 2).
fn fig4_jct_unlimited(opts: &HarnessOptions, pool: &ThreadPool) {
    let what = "reduction in job completion time, unlimited machines";
    jct_table(opts, 4, what, opts.evaluate(pool), &[None]);
}

/// Figures 8 and 9: JCT reduction averaged over the Figure 6/7 sweep.
fn fig8_jct_avg(opts: &HarnessOptions, pool: &ThreadPool) {
    let evaluated = opts.evaluate(pool);
    let counts = machine_counts(&evaluated.0);
    let what = format!("JCT reduction averaged over machine counts {counts:?}");
    jct_table(opts, 8, &what, evaluated, &counts.map(Some));
}

/// Figures 6 and 7: JCT reduction as a function of the machine-pool size
/// (Algorithm 3).
fn fig6_jct_machines(opts: &HarnessOptions, pool: &ThreadPool) {
    let (jobs, results) = opts.evaluate(pool);
    println!(
        "\n{}: JCT reduction vs number of machines ({} jobs).",
        figure(opts, 6),
        jobs.len()
    );
    let counts = machine_counts(&jobs);
    print!("{:8}", "Method");
    for m in counts {
        print!(" {m:>6}");
    }
    println!();
    println!("{:-^78}", "");
    for r in &results {
        print!("{:8}", r.name);
        for m in counts {
            print!(
                " {:6.1}",
                mean_jct_reduction(&jobs, &r.outcomes, &[Some(m)])
            );
        }
        println!();
    }
}

/// Extension experiment (paper §8 future work): cross-job transfer
/// learning. A donor latency model distilled from one completed job
/// warm-starts NURD's latency head on fresh jobs; the question is whether
/// it helps in the early checkpoints, where the scratch model has almost
/// no training data.
fn ext_transfer(pool: &ThreadPool) {
    let cfg = SuiteConfig::new(TraceStyle::Google)
        .with_jobs(13)
        .with_task_range(120, 220)
        .with_seed(0xE87);
    let jobs = nurd_trace::generate_suite(&cfg);
    // Job 0 is the completed donor; jobs 1.. are the online targets.
    let donor = DonorModel::from_job(&jobs[0], &NurdConfig::default()).expect("donor job distills");
    let targets = &jobs[1..];
    let replay = ReplayConfig::default();
    let scratch = replay_suite(pool, targets, &replay, |_| {
        Box::new(NurdPredictor::new(NurdConfig::default()))
    });
    let transfer = replay_suite(pool, targets, &replay, |_| {
        Box::new(NurdPredictor::with_prior(
            NurdConfig::default(),
            donor.clone(),
        ))
    });

    println!(
        "Extension: cross-job transfer learning ({} target jobs, 1 donor job).",
        targets.len()
    );
    println!("\nmean F1 at normalized-time deciles:");
    decile_row("variant", 10, decile_header());
    for (name, outcomes) in [("NURD", &scratch), ("NURD-TL", &transfer)] {
        decile_row(name, 10, decile_cells(outcomes));
    }
    let f1 = |outs: &[ReplayOutcome]| -> f64 {
        outs.iter().map(|o| o.confusion.f1()).sum::<f64>() / outs.len() as f64
    };
    println!(
        "\nend-of-job F1: NURD {:.3} vs NURD-TL {:.3}",
        f1(&scratch),
        f1(&transfer)
    );
    println!(
        "(the transfer head shares NURD's propensity/calibration; only the\n\
         latency model is warm-started, so gains concentrate early)"
    );
}

/// A suite of the §7 ablations: Google-style jobs of 120–250 tasks.
fn ablation_suite(jobs: usize, checkpoints: usize, seed: u64) -> SuiteConfig {
    SuiteConfig::new(TraceStyle::Google)
        .with_jobs(jobs)
        .with_task_range(120, 250)
        .with_checkpoints(checkpoints)
        .with_seed(seed)
}

/// The NURD-config ablations' shared loop: the table header, then per row
/// NURD's TPR, FPR and F1 over `jobs` under that row's config and replay
/// protocol. `column` and each row's label arrive already padded.
fn sweep(
    pool: &ThreadPool,
    jobs: &[JobTrace],
    column: &str,
    rows: impl IntoIterator<Item = (String, NurdConfig, ReplayConfig)>,
) {
    println!("{column} {:>6} {:>6} {:>6}", "TPR", "FPR", "F1");
    for (label, config, replay) in rows {
        let outcomes = replay_suite(pool, jobs, &replay, |_| {
            Box::new(NurdPredictor::new(config.clone()))
        });
        let s = summarize(&outcomes);
        println!("{label} {:6.2} {:6.2} {:6.3}", s.tpr, s.fpr, s.f1);
    }
}

/// Ablation: the calibration term δ. Sweeps α and compares NURD against
/// NURD-NC per latency family — the design-choice study behind §4.2.
fn ablation_calibration(pool: &ThreadPool) {
    println!("Ablation: calibration term (per latency family, 12 jobs each).");
    for (label, fraction) in [("long-tail", 1.0), ("close-tail", 0.0)] {
        let cfg = ablation_suite(12, 20, 0xAB1A).with_long_tail_fraction(fraction);
        let jobs = nurd_trace::generate_suite(&cfg);
        println!("\n{label} jobs:");
        let variants = std::iter::once(("NURD-NC".to_string(), NurdConfig::without_calibration()))
            .chain([0.08, 0.12, 0.2, 0.35, 0.5].map(|alpha| {
                (
                    format!("NURD α={alpha}"),
                    NurdConfig::default().with_alpha(alpha),
                )
            }));
        let rows = variants
            .map(|(label, config)| (format!("{label:14}"), config, ReplayConfig::default()));
        sweep(pool, &jobs, &format!("{:14}", "variant"), rows);
    }
}

/// Ablation: the minimum-weight floor ε (caps the dilation at 1/ε).
fn ablation_epsilon(pool: &ThreadPool) {
    let jobs = nurd_trace::generate_suite(&ablation_suite(16, 20, 0xAB1B));
    println!("Ablation: epsilon floor (16 mixed jobs, Google style).");
    let rows = [0.01, 0.05, 0.1, 0.2, 0.4].map(|epsilon| {
        let config = NurdConfig::default().with_epsilon(epsilon);
        (format!("{epsilon:8.2}"), config, ReplayConfig::default())
    });
    sweep(pool, &jobs, &format!("{:>8}", "epsilon"), rows);
}

/// Ablation: online model updates (§4.3). The paper refits `h_t` and `g_t`
/// at every checkpoint; this sweep shows what staleness costs.
fn ablation_refit(pool: &ThreadPool) {
    let jobs = nurd_trace::generate_suite(&ablation_suite(16, 25, 0xAB1D));
    println!("Ablation: refit interval (16 mixed jobs, Google style).");
    let rows = [1usize, 2, 4, 8, 1000].map(|refit_every| {
        let label = if refit_every == 1000 {
            "never".to_string()
        } else {
            refit_every.to_string()
        };
        let config = NurdConfig {
            refit_every,
            ..NurdConfig::default()
        };
        (format!("{label:>12}"), config, ReplayConfig::default())
    });
    sweep(pool, &jobs, &format!("{:>12}", "refit every"), rows);
}

/// Ablation: straggler-threshold robustness. The paper (§6) tests p70–p95
/// and reports that p90 is representative and NURD is robust across the
/// range; this sweep reproduces that claim.
fn ablation_threshold(pool: &ThreadPool) {
    let jobs = nurd_trace::generate_suite(&ablation_suite(16, 24, 0xAB1F));
    println!("Ablation: latency-threshold quantile (16 mixed Google-style jobs).");
    let rows = [0.70, 0.75, 0.80, 0.85, 0.90, 0.95].map(|quantile| {
        let replay = ReplayConfig {
            quantile,
            ..ReplayConfig::default()
        };
        (format!("{quantile:9.2}"), NurdConfig::default(), replay)
    });
    sweep(pool, &jobs, &format!("{:>9}", "quantile"), rows);
    println!("\nThe paper reports p90 as representative of p70-p95; the F1 level\nshould stay in a narrow band across the sweep.");
}

/// Ablation: the initial-training fraction (the paper waits for 4% of
/// tasks to finish before predicting).
fn ablation_warmup(pool: &ThreadPool) {
    let jobs = nurd_trace::generate_suite(&ablation_suite(16, 25, 0xAB1C));
    println!("Ablation: warmup fraction (16 mixed jobs, Google style).");
    let rows = [0.01, 0.04, 0.1, 0.2, 0.4].map(|warmup_fraction| {
        let replay = ReplayConfig {
            warmup_fraction,
            ..ReplayConfig::default()
        };
        (
            format!("{warmup_fraction:8.2}"),
            NurdConfig::default(),
            replay,
        )
    });
    sweep(pool, &jobs, &format!("{:>8}", "warmup"), rows);
}

/// Ablation: recall by straggler cause — which kinds of stragglers does
/// each method actually catch? Uses the generator's ground-truth task
/// plans (never visible to predictors).
fn ablation_causes(pool: &ThreadPool) {
    let cfg = ablation_suite(16, 24, 0xAB1E);
    let (jobs, plans): (Vec<_>, Vec<_>) = (0..cfg.jobs as u64)
        .map(|id| nurd_trace::generate_job_detailed(&cfg, id))
        .unzip();

    println!("Ablation: straggler recall by cause (16 mixed Google-style jobs).");
    println!(
        "{:10} {:>13} {:>10} {:>9} {:>7} {:>8}",
        "method", "interference", "data-skew", "eviction", "opaque", "overall"
    );
    let picks = ["GBTR", "KNN", "Grabit", "Wrangler", "NURD-NC", "NURD"];
    for spec in nurd_baselines::registry() {
        if !picks.contains(&spec.name) {
            continue;
        }
        let outcomes = replay_suite(pool, &jobs, &ReplayConfig::default(), |job| spec.build(job));
        // (caught, true stragglers) per cause, in `StragglerCause` order.
        let mut caught = [(0usize, 0usize); 4];
        for ((job, plans), out) in jobs.iter().zip(&plans).zip(&outcomes) {
            for (task, plan) in job.tasks().iter().zip(plans) {
                if task.latency() < out.threshold {
                    continue; // not a true straggler
                }
                let entry = &mut caught[plan.cause.unwrap_or(StragglerCause::Opaque) as usize];
                entry.0 += usize::from(out.flagged_at[task.id()].is_some());
                entry.1 += 1;
            }
        }
        let total = caught.iter().fold((0, 0), |t, c| (t.0 + c.0, t.1 + c.1));
        let pct = |(c, n): (usize, usize)| {
            if n == 0 {
                0.0
            } else {
                100.0 * c as f64 / n as f64
            }
        };
        println!(
            "{:10} {:>12.0}% {:>9.0}% {:>8.0}% {:>6.0}% {:>7.0}%",
            spec.name,
            pct(caught[0]),
            pct(caught[1]),
            pct(caught[2]),
            pct(caught[3]),
            pct(total)
        );
    }
    println!(
        "\nOpaque stragglers carry no feature signature: any recall there comes\n\
         from latency-space reasoning (NURD's dilation), not features."
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn command_of(args: &str) -> Result<(Body, HarnessOptions), String> {
        let args: Vec<String> = args.split_whitespace().map(String::from).collect();
        command(&args)
    }

    #[test]
    fn every_old_experiment_is_a_subcommand() {
        assert_eq!(COMMANDS.len(), 14);
        for (name, _) in COMMANDS {
            assert!(command_of(name).is_ok(), "{name}");
        }
    }

    #[test]
    fn a_fixed_suite_subcommand_rejects_flags() {
        let err = command_of("ablation_refit --jobs 2 --tasks 40:60")
            .map(|_| ())
            .unwrap_err();
        assert!(err.contains("fixed suite"), "{err}");
        assert!(command_of("table3_accuracy --jobs 2 --tasks 40:60").is_ok());
    }

    #[test]
    fn unknown_and_missing_subcommands_are_usage_errors() {
        assert!(command_of("").is_err());
        assert!(command_of("table4_accuracy").is_err());
        assert!(command_of("fig2_f1_timeline --jobs 0 --methods NURD").is_err());
    }
}
