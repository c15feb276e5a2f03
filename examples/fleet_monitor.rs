//! Fleet-scale streaming **as a concurrent service**: N producer threads
//! push jobs through cloned `EngineHandle`s into the background drain
//! loop, under bounded-queue back-pressure with adaptive shard
//! balancing, while a monitor loop polls lock-free stats and harvests
//! per-job scorecards as jobs finalize — then every outcome is
//! cross-checked against sequential replay.
//!
//! CI runs this example as the end-to-end gate on the service-mode
//! path: it exits nonzero on any panic, on nonzero malformed-event
//! counts (orphans, rejections), or on any event lost under
//! back-pressure.
//!
//! ```sh
//! cargo run --release --example fleet_monitor
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use nurd::core::{NurdConfig, NurdPredictor, RefitPolicy, WarmRefitConfig};
use nurd::data::{JobSpec, TaskEvent};
use nurd::serve::{BalanceConfig, EngineConfig, EngineService, ServiceConfig};
use nurd::sim::{replay_job, ReplayConfig};
use nurd::trace::{SuiteConfig, TraceStyle};

const SHARDS: usize = 4;
const PRODUCERS: usize = 3;
const QUANTILE: f64 = 0.9;
/// Small on purpose: saturates under the burst so the Block policy's
/// *blocking sends* are actually exercised (and counted) — producers
/// sleep inside `push` until the drain workers make room.
const QUEUE_CAPACITY: usize = 512;

fn nurd_warm() -> NurdPredictor {
    NurdPredictor::new(
        NurdConfig::default().with_refit_policy(RefitPolicy::Warm(WarmRefitConfig::default())),
    )
}

fn main() {
    // A small fleet of jobs, split round-robin across producer threads;
    // each producer interleaves its own jobs' streams (per-job order is
    // the stream contract, cross-job order is free).
    let cfg = SuiteConfig::new(TraceStyle::Google)
        .with_jobs(6)
        .with_task_range(80, 140)
        .with_checkpoints(12)
        .with_seed(0xF1EE7);
    let jobs = nurd::trace::generate_suite(&cfg);
    let specs: Vec<JobSpec> = jobs
        .iter()
        .map(|j| JobSpec::of_trace(j, QUANTILE))
        .collect();
    let streams: Vec<Vec<TaskEvent>> =
        nurd::trace::producer_streams(&jobs, PRODUCERS, QUANTILE, 0xF1EE7);
    let n_events: usize = streams.iter().map(Vec::len).sum();

    let service = EngineService::start(
        EngineConfig {
            shards: SHARDS,
            warmup_fraction: 0.04,
            queue_capacity: Some(QUEUE_CAPACITY),
            // One oversized job pinning a shard gets its refits fanned
            // out once that shard's backlog crosses the threshold (the
            // engine clamps the threshold to half the queue capacity).
            balance: Some(BalanceConfig {
                min_tasks: 64,
                ..BalanceConfig::default()
            }),
            ..EngineConfig::default()
        },
        ServiceConfig::default(),
        Box::new(|_spec: &JobSpec| Box::new(nurd_warm())),
    );

    println!(
        "streaming {} jobs · {} events · {PRODUCERS} producer threads → {SHARDS} shards \
         → background drain service · queue capacity {QUEUE_CAPACITY} (Block, blocking sends)\n",
        jobs.len(),
        n_events,
    );
    println!(
        "{:>5} {:>6} {:>9} {:>13} {:>9} {:>7} {:>7} {:>7}",
        "job", "tasks", "τ_stra(s)", "finalized", "flagged", "TPR", "FPR", "F1"
    );

    // Producers: push-only threads; the drain service does the rest.
    let start = std::time::Instant::now();
    let accepted = Arc::new(AtomicUsize::new(0));
    let producers: Vec<_> = streams
        .into_iter()
        .map(|stream| {
            let handle = service.handle();
            let accepted = Arc::clone(&accepted);
            std::thread::spawn(move || {
                accepted.fetch_add(handle.push_all(stream), Ordering::Relaxed);
            })
        })
        .collect();

    // The monitor loop: poll the atomics (no locks, no drain pauses),
    // print scorecards as jobs finalize, until the producers are done.
    let mut reports = Vec::new();
    let mut peak_backlog = 0usize;
    let harvest = |reports: &mut Vec<nurd::serve::JobReport>| {
        for r in service.take_finalized() {
            let spec = specs.iter().find(|s| s.job == r.job).expect("spec");
            let c = &r.outcome.confusion;
            println!(
                "{:>5} {:>6} {:>9.0} {:>13} {:>9} {:>7.2} {:>7.2} {:>7.2}",
                r.job,
                spec.task_count,
                spec.threshold,
                format!("{:?}", r.finalized),
                r.outcome.flagged_at.iter().flatten().count(),
                c.tpr(),
                c.fpr(),
                c.f1()
            );
            reports.push(r);
        }
    };
    while producers.iter().any(|p| !p.is_finished()) {
        peak_backlog = peak_backlog.max(service.stats().backlog_per_shard.iter().sum::<usize>());
        harvest(&mut reports);
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    for producer in producers {
        producer.join().expect("producer panicked");
    }
    // Everything is pushed; settle the backlog, harvest the remainder,
    // then shut down.
    service.quiesce();
    harvest(&mut reports);
    let stats = service.stats();
    let live: usize = stats.jobs_per_shard.iter().sum();
    let final_report = service.close();
    reports.extend(final_report.jobs.iter().cloned());
    let elapsed = start.elapsed();

    let macro_f1 = reports
        .iter()
        .map(|r| r.outcome.confusion.f1())
        .sum::<f64>()
        / reports.len() as f64;
    println!(
        "\nmacro-F1 {:.3} · {:.0} events/s · shard loads (events) {:?} · peak backlog {} · {} live at close",
        macro_f1,
        n_events as f64 / elapsed.as_secs_f64(),
        stats.events_per_shard,
        peak_backlog,
        live,
    );
    println!(
        "lifecycle: {} finalized mid-stream · stale tail {} · orphans {} · rejected {}",
        stats.finalized_jobs, stats.stale_events, stats.orphan_events, stats.rejected_events,
    );
    println!(
        "back-pressure: {} blocked (sleeping) pushes · {} balance boosts",
        stats.blocked_pushes, stats.balance_boosts,
    );

    // ---- CI gates: a clean canonical stream must stay clean. ----
    assert_eq!(
        accepted.load(Ordering::Relaxed),
        n_events,
        "a blocking push was rejected"
    );
    assert_eq!(
        final_report.events, n_events,
        "events lost between producers and drains"
    );
    assert_eq!(reports.len(), jobs.len(), "every job must finalize");
    assert_eq!(stats.orphan_events, 0, "canonical stream produced orphans");
    assert_eq!(stats.rejected_events, 0, "canonical stream was rejected");

    // The engine's contract: per-job results are bit-for-bit those of a
    // sequential replay, even though events were pushed by racing
    // producer threads and drained by background workers under
    // back-pressure and adaptive balancing. Check every job.
    let replay_cfg = ReplayConfig {
        quantile: QUANTILE,
        warmup_fraction: 0.04,
    };
    for job in &jobs {
        let reference = replay_job(job, &mut nurd_warm(), &replay_cfg);
        let served = &reports
            .iter()
            .find(|r| r.job == job.job_id())
            .expect("job reported")
            .outcome;
        assert_eq!(
            served,
            &reference,
            "engine must equal sequential replay bit-for-bit (job {})",
            job.job_id()
        );
    }
    println!(
        "determinism cross-check vs sequential replay: OK ({} jobs)",
        jobs.len()
    );
}
