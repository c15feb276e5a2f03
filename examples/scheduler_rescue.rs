//! Straggler mitigation end to end: predict with NURD, relaunch flagged
//! tasks (Algorithms 2 and 3 of the paper), measure the completion-time
//! savings. Each flag becomes a quarantine action at its checkpoint
//! (`ReplayOutcome::relaunches`), and `execute_actions` schedules the
//! kills and relaunches on unlimited machines or on a bounded pool.
//!
//! ```sh
//! cargo run --release --example scheduler_rescue
//! ```

use nurd::core::{NurdConfig, NurdPredictor};
use nurd::sim::{execute_actions, replay_job, MitigationSimConfig, ReplayConfig};
use nurd::trace::{SuiteConfig, TraceStyle};

fn main() {
    let config = SuiteConfig::new(TraceStyle::Google)
        .with_jobs(6)
        .with_task_range(150, 250)
        .with_seed(7);
    let jobs = nurd::trace::generate_suite(&config);

    println!("Straggler mitigation with NURD predictions\n");
    println!(
        "{:>5} {:>6} {:>12} {:>12} {:>10}",
        "job", "tasks", "baseline(s)", "mitigated(s)", "saved(%)"
    );

    // Unlimited machines (Algorithm 2): relaunch immediately.
    let mut total = 0.0;
    for job in &jobs {
        let mut nurd = NurdPredictor::new(NurdConfig::default());
        let outcome = replay_job(job, &mut nurd, &ReplayConfig::default());
        let jct = execute_actions(
            job,
            outcome.threshold,
            &outcome.relaunches(job),
            &MitigationSimConfig::default(),
        );
        total += jct.jct_reduction_percent();
        println!(
            "{:>5} {:>6} {:>12.0} {:>12.0} {:>10.1}",
            job.job_id(),
            job.task_count(),
            jct.jct_baseline,
            jct.jct_mitigated,
            jct.jct_reduction_percent()
        );
    }
    println!(
        "\nAlgorithm 2 (unlimited machines): average reduction {:.1}%",
        total / jobs.len() as f64
    );

    // Constrained pool (Algorithm 3): relaunches wait for free machines.
    println!("\nAlgorithm 3 (bounded machine pool), job 0:");
    let job = &jobs[0];
    let mut nurd = NurdPredictor::new(NurdConfig::default());
    let outcome = replay_job(job, &mut nurd, &ReplayConfig::default());
    let relaunches = outcome.relaunches(job);
    for machines in [50, 100, 200, 400] {
        let sim = MitigationSimConfig {
            machines: Some(machines),
            ..MitigationSimConfig::default()
        };
        let jct = execute_actions(job, outcome.threshold, &relaunches, &sim);
        println!(
            "  {machines:>4} machines: baseline {:>7.0}s → mitigated {:>7.0}s ({:+.1}%)",
            jct.jct_baseline,
            jct.jct_mitigated,
            jct.jct_reduction_percent()
        );
    }
}
