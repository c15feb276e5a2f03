//! A look inside NURD while a job runs: per-checkpoint propensity scores,
//! weights and adjusted predictions for selected tasks — the quantities of
//! Algorithm 1, live.
//!
//! ```sh
//! cargo run --release --example online_monitor
//! ```

use nurd::core::{NurdConfig, NurdPredictor};
use nurd::data::{Checkpoint, FinishedTask, OnlinePredictor, RunningTask, StreamContext};
use nurd::trace::{SuiteConfig, TraceStyle};

fn main() {
    let config = SuiteConfig::new(TraceStyle::Google)
        .with_jobs(1)
        .with_task_range(150, 150)
        .with_seed(0x0b5)
        .with_long_tail_fraction(1.0);
    let job = nurd::trace::generate_job(&config, 0);
    let threshold = job.straggler_threshold(0.9);
    let warmup = job.warmup_checkpoint(0.04);

    let mut nurd = NurdPredictor::new(NurdConfig::default());
    nurd.begin_stream(&StreamContext {
        threshold,
        task_count: job.task_count(),
        feature_dim: job.feature_dim(),
    });

    // Watch the slowest task (a straggler) and the median task.
    let mut order: Vec<usize> = (0..job.task_count()).collect();
    order.sort_by(|&a, &b| {
        job.tasks()[a]
            .latency()
            .partial_cmp(&job.tasks()[b].latency())
            .unwrap()
    });
    let straggler = *order.last().unwrap();
    let median_task = order[order.len() / 2];
    println!(
        "watching straggler task {straggler} (latency {:.0}s) and median task {median_task} \
         (latency {:.0}s); τ = {:.0}s\n",
        job.tasks()[straggler].latency(),
        job.tasks()[median_task].latency(),
        threshold
    );
    println!(
        "{:>4} {:>8} | {:>22} | {:>22}",
        "ckpt", "time(s)", "straggler  ŷ / z / ŷadj", "median     ŷ / z / ŷadj"
    );

    for (k, &time) in job.checkpoint_times().iter().enumerate() {
        if k < warmup || time >= threshold {
            continue;
        }
        let mut finished = Vec::new();
        let mut running = Vec::new();
        for task in job.tasks() {
            if task.latency() <= time {
                finished.push(FinishedTask {
                    id: task.id(),
                    features: task.snapshot(k),
                    latency: task.latency(),
                });
            } else {
                running.push(RunningTask {
                    id: task.id(),
                    features: task.snapshot(k),
                });
            }
        }
        let checkpoint = Checkpoint {
            ordinal: k,
            time,
            finished,
            running,
        };
        let scores = nurd.score_running(&checkpoint);
        let cell = |id: usize| -> String {
            scores
                .iter()
                .find(|s| s.id == id)
                .map_or("   (finished)        ".into(), |s| {
                    format!("{:6.0} / {:4.2} / {:6.0}", s.raw, s.propensity, s.adjusted)
                })
        };
        println!(
            "{k:>4} {time:>8.0} | {:>22} | {:>22}",
            cell(straggler),
            cell(median_task)
        );
    }
    println!(
        "\ncalibration: delta = {:?} (positive damps false positives; \
         see Algorithm 1 lines 4-6)",
        nurd.delta()
    );
}
