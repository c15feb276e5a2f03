//! The traced run: the per-layer numbers, from the benchmark's own
//! wrappers around the calls into each layer. Its timings never feed an
//! end-to-end metric; the difference to an untraced pass is printed as
//! `trace_overhead_pct`.

use std::collections::HashMap;
use std::io::Write;
use std::time::{Duration, Instant};

use nurd_sim::{replay_job, ReplayConfig};

use crate::harness::{self, Saturated, CUT_FRACTION, MID_CHECKPOINTS, WARMUP_FRACTION};
use crate::reference::{self, Reference, Tally};
use crate::stage::{StageTimes, StagedNurd};
use crate::stats::{best, median, percentile, sorted};
use crate::workloads::{cut_index, Workload, QUANTILE};
use crate::wrappers::{busy, Recorder, Span};
use crate::{alloc, out_dir, probes, run_dir, Args, Measured, Results};

/// Rate of the open-loop diagnostic, events per second.
const PACED_RATE: f64 = 30_000.0;

/// Metric name → value, filled as the run goes; unset metrics are those
/// that do not apply to the workload and print as 0.
#[derive(Default)]
struct Sheet(HashMap<&'static str, f64>);

impl Sheet {
    fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }
}

fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    sorted(
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect(),
    )
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// The `ml` rows: replays the same jobs through [`StagedNurd`] and checks
/// the replay reproduced the reference, so the stages timed are the
/// stages the engine runs. Each job is also replayed through the timed
/// `NurdPredictor`. Both replays run twice per job, interleaved (staged,
/// whole, whole, staged), and the faster of each pair counts, so the stage
/// sum and the whole-call time it is divided by see the same machine.
fn stage_replay(
    workload: &Workload,
    jobs: &[nurd_data::JobTrace],
    reference: &Reference,
    sheet: &mut Sheet,
) {
    let config = ReplayConfig {
        quantile: QUANTILE,
        warmup_fraction: WARMUP_FRACTION,
    };
    let mut t = StageTimes::default();
    let mut whole_s = 0.0;
    for (job, expected) in jobs.iter().zip(&reference.outcomes) {
        let staged = || {
            let mut staged = StagedNurd::new(harness::nurd_config());
            let outcome = replay_job(job, &mut staged, &config);
            assert!(
                outcome == *expected,
                "stage replay of job {} diverged from NurdPredictor: the ml rows would time other work",
                job.job_id()
            );
            staged.times
        };
        let whole = || {
            let rec = Recorder::new();
            let mut timed = harness::predictor(workload, job.job_id(), Some(&rec));
            replay_job(job, timed.as_mut(), &config);
            busy(&rec.spans(), "core.predict").0
        };
        let (s1, w1, w2, s2) = (staged(), whole(), whole(), staged());
        t.add(if s1.sum_s() <= s2.sum_s() { &s1 } else { &s2 });
        whole_s += w1.min(w2);
    }
    sheet.set("ml.absorb_s", t.absorb_s);
    sheet.set("ml.gbt_cold_fit_s", t.gbt_cold_fit_s);
    sheet.set("ml.gbt_warm_fit_s", t.gbt_warm_fit_s);
    sheet.set("ml.logistic_fit_s", t.logistic_fit_s);
    sheet.set("ml.flatten_s", t.flatten_s);
    sheet.set("ml.score_latency_s", t.score_latency_s);
    sheet.set("ml.score_propensity_s", t.score_propensity_s);
    sheet.set("ml.rows_fit", t.rows_fit as f64);
    sheet.set("ml.rows_scored", t.rows_scored as f64);
    sheet.set("ml.tree_row_visits", t.tree_row_visits as f64);
    sheet.set("ml.stage_sum_over_predict", t.sum_s() / whole_s);
}

/// The per-barrier budget of one traced lockstep pass, in means (which
/// add up, where medians do not): `barrier_commit` is the sum of
/// `queue_wait`, `predict`, `observe` and `commit_self`. `mitigate.decide`
/// runs after the stamp, so it is shown beside the budget, not inside it.
fn budget(workload: &Workload, spans: &[Span], sheet: &mut Sheet) {
    let commit = durations_ms(spans, "barrier_commit");
    let wait = durations_ms(spans, "serve.queue_wait");
    let predict = durations_ms(spans, "core.predict");
    let observe = durations_ms(spans, "health.observe");
    let decide = durations_ms(spans, "mitigate.decide");
    // Self time per request: the root span minus what its children cover.
    let mut children: HashMap<(u64, usize), f64> = HashMap::new();
    for s in spans {
        if matches!(
            s.name,
            "serve.queue_wait" | "core.predict" | "health.observe"
        ) {
            *children.entry((s.job, s.ordinal)).or_insert(0.0) += s.ms();
        }
    }
    let commit_self = sorted(
        spans
            .iter()
            .filter(|s| s.name == "barrier_commit")
            .map(|s| s.ms() - children.get(&(s.job, s.ordinal)).copied().unwrap_or(0.0))
            .collect(),
    );
    sheet.set("serve.queue_wait_p50_ms", percentile(&wait, 50.0));
    sheet.set("serve.queue_wait_p99_ms", percentile(&wait, 99.0));
    sheet.set("serve.commit_self_p50_ms", percentile(&commit_self, 50.0));
    sheet.set("core.predict_p50_ms", percentile(&predict, 50.0));
    sheet.set("core.predict_p99_ms", percentile(&predict, 99.0));
    sheet.set("budget.barrier_commit_mean_ms", mean(&commit));
    sheet.set("budget.barrier_commit_p99_ms", percentile(&commit, 99.0));
    sheet.set("budget.queue_wait_mean_ms", mean(&wait));
    sheet.set("budget.predict_mean_ms", mean(&predict));
    sheet.set("budget.observe_mean_ms", mean(&observe));
    sheet.set("budget.decide_mean_ms", mean(&decide));
    sheet.set("budget.commit_self_mean_ms", mean(&commit_self));
    let residual_pct = 100.0 * mean(&commit_self) / mean(&commit).max(f64::MIN_POSITIVE);
    sheet.set("budget.residual_pct", residual_pct);
    println!(
        "# {} budget (mean ms per scored barrier): barrier_commit {:.4} = queue_wait {:.4} + predict {:.4} \
         + observe {:.4} + commit_self {:.4} (residual {:.2}%); decide {:.4} after the stamp",
        workload.name,
        mean(&commit),
        mean(&wait),
        mean(&predict),
        mean(&observe),
        mean(&commit_self),
        residual_pct,
        mean(&decide),
    );
}

/// Writes the spans of the traced passes to `out/<workload>.trace.json`.
/// A span's parent is its request's `barrier_commit` span.
fn write_trace(workload: &Workload, phases: &[(&str, &[Span])]) {
    let path = out_dir().join(format!("{}.trace.json", workload.name));
    std::fs::create_dir_all(out_dir()).expect("create out dir");
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path).expect("create trace file"));
    let mut next_id = 0usize;
    let mut lines = Vec::new();
    for (phase, spans) in phases {
        let roots: HashMap<(u64, usize), usize> = spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == "barrier_commit")
            .map(|(i, s)| ((s.job, s.ordinal), next_id + i))
            .collect();
        for (i, s) in spans.iter().enumerate() {
            let parent = match roots.get(&(s.job, s.ordinal)) {
                Some(root) if s.name != "barrier_commit" && s.name != "health.finalized" => {
                    root.to_string()
                }
                _ => "null".to_string(),
            };
            lines.push(format!(
                "{{\"id\": {}, \"phase\": \"{phase}\", \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"job\": {}, \"ordinal\": {}}}",
                next_id + i,
                s.name,
                s.start_ns,
                s.end_ns,
                s.job,
                s.ordinal
            ));
        }
        next_id += spans.len();
    }
    writeln!(
        out,
        "{{\"workload\": \"{}\", \"spans\": [\n{}\n]}}",
        workload.name,
        lines.join(",\n")
    )
    .and_then(|()| out.flush())
    .expect("write trace file");
    println!(
        "# {} trace: {} spans in {}",
        workload.name,
        next_id,
        path.display()
    );
}

pub fn run(workload: &Workload, args: &Args) -> Results {
    // The whole traced run, fixed parts included, aims at `--seconds`.
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let run_dir = run_dir();
    let durable_dir = workload.durable.then(|| run_dir.join("durable"));
    let mut sheet = Sheet::default();
    let mut tally = Tally::default();

    let inputs = workload.generate(args.seed, args.quick);
    let events = &inputs.events;
    sheet.set("trace.generate_s", inputs.generate_s);
    sheet.set("trace.lower_s", inputs.lower_s);
    sheet.set("data.events", events.len() as f64);

    let reference = reference::build(workload, &inputs.jobs);
    sheet.set("sim.replay_s", reference.replay_s);
    if workload.nurd {
        stage_replay(workload, &inputs.jobs, &reference, &mut sheet);
    }

    // The durable lifecycle of the burst twin, traced: cut, kill, recover,
    // finish (the recover phase of the untraced run, done once).
    let burst = workload.burst_events(&inputs.jobs);
    let rec = Recorder::new();
    let burst_cut = cut_index(&burst, CUT_FRACTION);
    let crashed = harness::run_to_crash(
        workload,
        harness::crash_prefix(&burst, burst_cut),
        burst_cut,
        MID_CHECKPOINTS,
        &run_dir.join("crashed"),
        Some(&rec),
    );
    let (served, receipt, _) =
        harness::recover(workload, &crashed, &run_dir.join("recovered"), Some(&rec));
    tally.check_receipt(&crashed, &receipt);
    let (report, stats) = harness::finish_recovered(served, &receipt, &burst);
    tally.check(
        "recovered",
        &reference,
        &report.jobs,
        burst.len(),
        report.events,
        &stats,
    );
    let calls = rec.state_calls();
    sheet.set("serve.checkpoint_ms_p50", median(&crashed.checkpoint_ms));
    sheet.set("serve.snapshot_bytes", crashed.snapshot_bytes as f64);
    sheet.set(
        "serve.snapshot_bytes_per_live_job",
        crashed.snapshot_bytes as f64 / crashed.live_jobs.max(1) as f64,
    );
    sheet.set("serve.wal_appended", crashed.stats.wal_appended as f64);
    sheet.set("serve.wal_bytes_per_event", crashed.wal_bytes_per_event);
    sheet.set(
        "serve.recover_replayed_events",
        receipt.wal_events_replayed as f64,
    );
    sheet.set("serve.recover_resumed_jobs", receipt.resumed_jobs as f64);
    sheet.set("serve.recover_fallbacks", receipt.recovery_fallbacks as f64);
    sheet.set(
        "core.snapshot_state_ms_mean",
        calls.snapshot_ns as f64 / 1e6 / calls.snapshot_calls.max(1) as f64,
    );
    sheet.set(
        "core.state_blob_bytes_mean",
        calls.snapshot_bytes as f64 / calls.snapshot_calls.max(1) as f64,
    );
    sheet.set(
        "core.restore_state_ms_mean",
        calls.restore_ns as f64 / 1e6 / calls.restore_calls.max(1) as f64,
    );

    // Rounds of traced saturated, traced lockstep and untraced saturated
    // passes until the time budget is spent; timings are medians over the
    // rounds, counts repeat exactly and come from the last one.
    let cut = cut_index(events, CUT_FRACTION);
    let mut traced_rate = Vec::new();
    let mut untraced_rate = Vec::new();
    let mut busy_share = Vec::new();
    let mut push_ns = Vec::new();
    let mut close_s = Vec::new();
    let mut decide_s = Vec::new();
    let mut observe_s = Vec::new();
    let mut last_saturated: Vec<Span>;
    let mut last_lockstep: Vec<Span>;
    loop {
        // Traced saturated pass, with the allocator counting.
        let rec = Recorder::new();
        let input = harness::saturated_input(workload, events, cut);
        alloc::start();
        let sat =
            harness::saturated_phase(workload, input, cut, Some(&rec), durable_dir.as_deref());
        let allocs = alloc::stop();
        tally.check_saturated("traced saturated", &reference, &sat);
        let (pushed, stats) = (sat.served(), sat.stats());
        let spans = rec.spans();
        let (predict_s, predict_calls) = busy(&spans, "core.predict");
        let (decide, decide_calls) = busy(&spans, "mitigate.decide");
        let (observe, observe_calls) = busy(&spans, "health.observe");
        let (finalized, finalized_calls) = busy(&spans, "health.finalized");
        traced_rate.push(sat.rate());
        // The share of the pass the drain workers spent inside the predictor.
        busy_share.push(predict_s / sat.wall_s() / harness::drain_workers() as f64);
        decide_s.push(decide);
        observe_s.push(observe + finalized);
        if let Saturated::Full(pass) = &sat {
            push_ns.push(pass.push_s * 1e9 / pass.pushed as f64);
            close_s.push(pass.close_s);
            sheet.set("serve.backlog_max", pass.backlog_max as f64);
        }
        let fits = rec.fits();
        sheet.set("serve.blocked_pushes", stats.blocked_pushes as f64);
        sheet.set(
            "serve.events_applied",
            stats.events_per_shard.iter().sum::<usize>() as f64,
        );
        sheet.set("serve.orphan_events", stats.orphan_events as f64);
        sheet.set("serve.stale_events", stats.stale_events as f64);
        sheet.set("serve.rejected_events", stats.rejected_events as f64);
        sheet.set("serve.lost_events", stats.overload.lost_events() as f64);
        sheet.set("core.predict_calls", predict_calls as f64);
        sheet.set("core.cold_fits", fits.cold_fits as f64);
        sheet.set("core.warm_fits", fits.warm_fits as f64);
        sheet.set("core.reuses", fits.reuses as f64);
        sheet.set("core.drift_rebins", fits.drift_rebins as f64);
        sheet.set("core.cap_resets", fits.cap_resets as f64);
        sheet.set("core.fit_failures", fits.fit_failures as f64);
        sheet.set("mitigate.decide_calls", decide_calls as f64);
        sheet.set(
            "mitigate.actions_committed",
            (stats.clones_issued + stats.quarantines_issued) as f64,
        );
        sheet.set("mitigate.suppressed", stats.mitigation_suppressed as f64);
        sheet.set(
            "health.observe_calls",
            (observe_calls + finalized_calls) as f64,
        );
        sheet.set("alloc.count_per_event", allocs.count as f64 / pushed as f64);
        sheet.set("alloc.bytes_per_event", allocs.bytes as f64 / pushed as f64);
        sheet.set(
            "alloc.count_per_scored_barrier",
            allocs.count as f64 / predict_calls.max(1) as f64,
        );
        sheet.set(
            "alloc.peak_live_mb",
            allocs.peak_live_bytes as f64 / (1024.0 * 1024.0),
        );
        last_saturated = spans;

        // Traced lockstep pass: the per-barrier budget.
        let rec = Recorder::new();
        let pass = harness::lockstep(
            workload,
            events.clone(),
            &reference,
            Some(&rec),
            durable_dir.as_deref(),
        );
        tally.check(
            "traced lockstep",
            &reference,
            &pass.report.jobs,
            pass.pushed,
            pass.report.events,
            &pass.stats,
        );
        last_lockstep = rec.spans();

        // Untraced saturated pass, for the tracing overhead.
        let input = harness::saturated_input(workload, events, cut);
        untraced_rate.push(
            harness::saturated_phase(workload, input, cut, None, durable_dir.as_deref()).rate(),
        );

        if args.quick || Instant::now() >= deadline {
            break;
        }
    }
    budget(workload, &last_lockstep, &mut sheet);
    sheet.set("core.predict_busy_share", median(&busy_share));
    sheet.set("serve.push_ns_per_event", median(&push_ns));
    sheet.set("serve.close_drain_s", median(&close_s));
    sheet.set("mitigate.decide_busy_s", median(&decide_s));
    sheet.set("health.observe_busy_s", median(&observe_s));
    // Rates compare by their best rounds, as the end-to-end metrics do.
    let untraced_rate = best(&untraced_rate, true);
    sheet.set(
        "trace_overhead_pct",
        100.0 * (1.0 - best(&traced_rate, true) / untraced_rate),
    );
    // Served wall (untraced) over the single-threaded replay of the same jobs.
    let served_events = if workload.durable { cut } else { events.len() };
    sheet.set(
        "sim.serve_over_replay",
        served_events as f64 / untraced_rate / reference.replay_s,
    );

    if workload.durable {
        // Same prefix through a volatile service: what durability costs.
        let volatile: Vec<f64> = (0..3)
            .map(|_| harness::saturated(workload, events[..cut].to_vec(), None).events_per_s())
            .collect();
        sheet.set(
            "serve.durable_over_volatile",
            untraced_rate / best(&volatile, true),
        );
    }

    let mut phases: Vec<(&str, &[Span])> =
        vec![("saturated", &last_saturated), ("lockstep", &last_lockstep)];
    let paced_spans;
    if workload.name == "fleet_google" {
        // Open-loop diagnostic: ungated, see the README for why.
        let rec = Recorder::new();
        let paced = harness::paced(workload, events.clone(), &reference, PACED_RATE, &rec);
        tally.check(
            "paced",
            &reference,
            &paced.pass.report.jobs,
            paced.pass.pushed,
            paced.pass.report.events,
            &paced.pass.stats,
        );
        let latencies = sorted(paced.latencies_ms);
        sheet.set("serve.paced_p50_ms", percentile(&latencies, 50.0));
        sheet.set("serve.paced_p99_ms", percentile(&latencies, 99.0));
        sheet.set("serve.paced_late_max_ms", paced.late_max_ms);
        paced_spans = rec.spans();
        phases.push(("paced", &paced_spans));

        // Defect probe, reported not fixed: one mid-stream checkpoint and
        // a plain 50% cut, no cut rule.
        let half = events.len() / 2;
        let natural = harness::run_to_crash(
            workload,
            harness::crash_prefix(events, half),
            half,
            1,
            &run_dir.join("natural"),
            None,
        );
        let live_at_kill: usize = natural.stats.jobs_per_shard.iter().sum();
        let (served, receipt, _) =
            harness::recover(workload, &natural, &run_dir.join("recovered"), None);
        let live_after: usize = served.service.stats().jobs_per_shard.iter().sum();
        drop(served);
        sheet.set(
            "serve.recover_fallbacks_natural_cut",
            receipt.recovery_fallbacks as f64,
        );
        sheet.set(
            "serve.recover_jobs_lost_natural_cut",
            live_at_kill.saturating_sub(live_after) as f64,
        );
        println!(
            "# {} natural cut: {} fallbacks, snapshot {:?}, {} of {} live jobs survive recovery",
            workload.name,
            receipt.recovery_fallbacks,
            receipt.snapshot_generation,
            live_after,
            live_at_kill
        );
    }
    write_trace(workload, &phases);

    sheet.set("runtime.channel_ns_per_item", probes::channel_ns_per_item());
    sheet.set(
        "runtime.pool_scope_us",
        probes::pool_scope_us(harness::available_parallelism()),
    );
    sheet.set(
        "runtime.notifier_roundtrip_us",
        probes::notifier_roundtrip_us(),
    );

    let metrics = crate::manifest::PER_LAYER
        .iter()
        .map(|&(name, _, _)| Measured {
            name,
            value: sheet.0.get(name).copied().unwrap_or(0.0),
            spread: None,
        })
        .collect();
    Results { metrics, tally }
}
