//! The untraced run: the only source of end-to-end metrics.

use std::time::{Duration, Instant};

use crate::harness::{self, Crashed, CUT_FRACTION, MID_CHECKPOINTS};
use crate::reference::{self, Reference, Tally};
use crate::stats::{best, percentile, quiet_wall, sorted, summarize};
use crate::workloads::{cut_index, Workload};
use crate::{run_dir, Args, Measured, Results};

/// How often set-up is repeated; `setup_s` is the fastest.
const SETUPS: usize = 5;
/// Builds the crashed directory every round recovers from — `burst`, the
/// fleet admitted at once, pushed to the cut and killed — and proves once
/// that a recovery from it finishes the fleet exactly as sequential replay
/// does (restart equals uninterrupted).
fn crash_fixture(
    workload: &Workload,
    burst: &[nurd_data::TaskEvent],
    reference: &Reference,
    tally: &mut Tally,
) -> Crashed {
    let run_dir = run_dir();
    let cut = cut_index(burst, CUT_FRACTION);
    let crashed = harness::run_to_crash(
        workload,
        harness::crash_prefix(burst, cut),
        cut,
        MID_CHECKPOINTS,
        &run_dir.join("crashed"),
        None,
    );
    let (served, receipt, _) =
        harness::recover(workload, &crashed, &run_dir.join("recovered"), None);
    tally.check_receipt(&crashed, &receipt);
    let (report, stats) = harness::finish_recovered(served, &receipt, burst);
    tally.check(
        "recovered",
        reference,
        &report.jobs,
        burst.len(),
        report.events,
        &stats,
    );
    crashed
}

pub fn run(workload: &Workload, args: &Args) -> Results {
    let run_dir = run_dir();
    let durable_dir = workload.durable.then(|| run_dir.join("durable"));

    // Set-up: trace generation + lowering + service start.
    let mut setups = Vec::new();
    let mut inputs = None;
    for _ in 0..if args.quick { 1 } else { SETUPS } {
        let start = Instant::now();
        inputs = Some(workload.generate(args.seed, args.quick));
        harness::start_and_drop(workload, durable_dir.as_deref());
        setups.push(start.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("at least one set-up");
    let events = &inputs.events;

    let mut tally = Tally::default();
    let reference = reference::build(workload, &inputs.jobs);
    let burst = workload.burst_events(&inputs.jobs);
    let crashed = crash_fixture(workload, &burst, &reference, &mut tally);
    let cut = cut_index(events, CUT_FRACTION);

    let mut events_per_s = Vec::new();
    let mut timelines = Vec::new();
    let mut served_events = 0;
    let mut recover_s = Vec::new();
    let mut latencies: Vec<Vec<f64>> = Vec::new();
    let mut macro_f1 = 0.0;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    // The first round warms caches and the allocator and is discarded.
    let mut round = 0;
    while round < 2 || Instant::now() < deadline {
        let keep = round > 0 || args.quick;
        round += 1;

        let input = harness::saturated_input(workload, events, cut);
        let sat = harness::saturated_phase(workload, input, cut, None, durable_dir.as_deref());
        tally.check_saturated("saturated", &reference, &sat);

        let pass = harness::lockstep(
            workload,
            events.clone(),
            &reference,
            None,
            durable_dir.as_deref(),
        );
        tally.check(
            "lockstep",
            &reference,
            &pass.report.jobs,
            pass.pushed,
            pass.report.events,
            &pass.stats,
        );
        macro_f1 = pass.report.macro_f1();

        let (served, receipt, seconds) =
            harness::recover(workload, &crashed, &run_dir.join("recovered"), None);
        tally.check_receipt(&crashed, &receipt);
        drop(served);

        if keep {
            served_events = sat.served();
            events_per_s.push(sat.rate());
            timelines.push(sat.marks().to_vec());
            latencies.push(pass.latencies_ms);
            recover_s.push(seconds);
        }
        if args.quick {
            break;
        }
    }

    // Every timing is its best repetition, at the finest grain that
    // repeats: the round for set-up and recovery (`stats::best`), the
    // timeline segment for the saturated wall (`stats::quiet_wall`), and
    // for latencies the single request: each scored barrier is
    // pushed once per round, in the same stream position, so its latency is
    // the lowest of its rounds, and the percentiles are over the barriers.
    // The spread beside them is that of the raw per-pass percentiles.
    let barriers = latencies.first().map_or(0, Vec::len);
    let quietest = sorted(
        (0..barriers)
            .map(|i| {
                best(
                    &latencies.iter().map(|pass| pass[i]).collect::<Vec<_>>(),
                    false,
                )
            })
            .collect(),
    );
    let latency = |name: &'static str, p: f64| {
        let per_pass: Vec<f64> = latencies
            .iter()
            .map(|l| percentile(&sorted(l.clone()), p))
            .collect();
        Measured {
            name,
            value: percentile(&quietest, p),
            spread: Some(summarize(&per_pass)),
        }
    };
    let fastest = |name: &'static str, samples: &[f64]| Measured {
        name,
        value: best(samples, false),
        spread: Some(summarize(samples)),
    };
    println!(
        "# {}: {} jobs, {} events, {} scored barriers, cut at {} ({} live jobs), {} kept rounds",
        workload.name,
        inputs.jobs.len(),
        events.len(),
        reference.scored_barriers,
        crashed.cut,
        crashed.live_jobs,
        events_per_s.len()
    );
    Results {
        metrics: vec![
            fastest("setup_s", &setups),
            Measured {
                name: "events_per_s",
                value: served_events as f64 / quiet_wall(&timelines),
                spread: Some(summarize(&events_per_s)),
            },
            latency("barrier_commit_p50_ms", 50.0),
            latency("barrier_commit_p95_ms", 95.0),
            fastest("recover_s", &recover_s),
            Measured {
                name: "macro_f1",
                value: macro_f1,
                spread: None,
            },
        ],
        tally,
    }
}
