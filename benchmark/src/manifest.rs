//! The metric tables: the single source `BENCHMARK.json` is emitted from
//! (`--emit-manifest`) and every printed result is checked against.

use crate::workloads::WORKLOADS;

pub const RUN_SECONDS: u64 = 25;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// What a user of the system sees. Every workload reports every one.
#[rustfmt::skip]
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd { name: "setup_s", unit: "s", better: "lower", bound: 0.25 },
    EndToEnd { name: "events_per_s", unit: "1/s", better: "higher", bound: 0.25 },
    EndToEnd { name: "barrier_commit_p50_ms", unit: "ms", better: "lower", bound: 0.25 },
    EndToEnd { name: "barrier_commit_p95_ms", unit: "ms", better: "lower", bound: 0.25 },
    EndToEnd { name: "recover_s", unit: "s", better: "lower", bound: 0.25 },
    EndToEnd { name: "macro_f1", unit: "ratio", better: "higher", bound: 0.01 },
];

/// `(name, unit, better)` of every per-layer metric of the traced pass.
pub const PER_LAYER: [(&str, &str, &str); 77] = [
    ("serve.queue_wait_p50_ms", "ms", "lower"),
    ("serve.queue_wait_p99_ms", "ms", "lower"),
    ("serve.commit_self_p50_ms", "ms", "lower"),
    ("serve.push_ns_per_event", "ns", "lower"),
    ("serve.close_drain_s", "s", "lower"),
    ("serve.blocked_pushes", "count", "lower"),
    ("serve.backlog_max", "count", "lower"),
    ("serve.events_applied", "count", "higher"),
    ("serve.orphan_events", "count", "lower"),
    ("serve.stale_events", "count", "lower"),
    ("serve.rejected_events", "count", "lower"),
    ("serve.lost_events", "count", "lower"),
    ("serve.checkpoint_ms_p50", "ms", "lower"),
    ("serve.snapshot_bytes", "bytes", "lower"),
    ("serve.snapshot_bytes_per_live_job", "bytes", "lower"),
    ("serve.wal_appended", "count", "lower"),
    ("serve.wal_bytes_per_event", "bytes", "lower"),
    ("serve.durable_over_volatile", "ratio", "higher"),
    ("serve.recover_replayed_events", "count", "lower"),
    ("serve.recover_resumed_jobs", "count", "higher"),
    ("serve.recover_fallbacks", "count", "lower"),
    ("serve.recover_fallbacks_natural_cut", "count", "lower"),
    ("serve.recover_jobs_lost_natural_cut", "count", "lower"),
    ("serve.paced_p50_ms", "ms", "lower"),
    ("serve.paced_p99_ms", "ms", "lower"),
    ("serve.paced_late_max_ms", "ms", "lower"),
    ("core.predict_busy_share", "ratio", "lower"),
    ("core.predict_p50_ms", "ms", "lower"),
    ("core.predict_p99_ms", "ms", "lower"),
    ("core.predict_calls", "count", "lower"),
    ("core.cold_fits", "count", "lower"),
    ("core.warm_fits", "count", "lower"),
    ("core.reuses", "count", "higher"),
    ("core.drift_rebins", "count", "lower"),
    ("core.cap_resets", "count", "lower"),
    ("core.fit_failures", "count", "lower"),
    ("core.snapshot_state_ms_mean", "ms", "lower"),
    ("core.state_blob_bytes_mean", "bytes", "lower"),
    ("core.restore_state_ms_mean", "ms", "lower"),
    ("ml.absorb_s", "s", "lower"),
    ("ml.gbt_cold_fit_s", "s", "lower"),
    ("ml.gbt_warm_fit_s", "s", "lower"),
    ("ml.logistic_fit_s", "s", "lower"),
    ("ml.flatten_s", "s", "lower"),
    ("ml.score_latency_s", "s", "lower"),
    ("ml.score_propensity_s", "s", "lower"),
    ("ml.rows_fit", "count", "lower"),
    ("ml.rows_scored", "count", "lower"),
    ("ml.tree_row_visits", "count", "lower"),
    ("ml.stage_sum_over_predict", "ratio", "higher"),
    ("runtime.channel_ns_per_item", "ns", "lower"),
    ("runtime.pool_scope_us", "us", "lower"),
    ("runtime.notifier_roundtrip_us", "us", "lower"),
    ("mitigate.decide_busy_s", "s", "lower"),
    ("mitigate.decide_calls", "count", "lower"),
    ("mitigate.actions_committed", "count", "higher"),
    ("mitigate.suppressed", "count", "lower"),
    ("health.observe_busy_s", "s", "lower"),
    ("health.observe_calls", "count", "lower"),
    ("sim.replay_s", "s", "lower"),
    ("sim.serve_over_replay", "ratio", "lower"),
    ("trace.generate_s", "s", "lower"),
    ("trace.lower_s", "s", "lower"),
    ("data.events", "count", "lower"),
    ("alloc.count_per_event", "count", "lower"),
    ("alloc.bytes_per_event", "bytes", "lower"),
    ("alloc.count_per_scored_barrier", "count", "lower"),
    ("alloc.peak_live_mb", "MB", "lower"),
    ("budget.barrier_commit_mean_ms", "ms", "lower"),
    ("budget.barrier_commit_p99_ms", "ms", "lower"),
    ("budget.queue_wait_mean_ms", "ms", "lower"),
    ("budget.predict_mean_ms", "ms", "lower"),
    ("budget.observe_mean_ms", "ms", "lower"),
    ("budget.decide_mean_ms", "ms", "lower"),
    ("budget.commit_self_mean_ms", "ms", "lower"),
    ("budget.residual_pct", "%", "lower"),
    ("trace_overhead_pct", "%", "lower"),
];

/// `BENCHMARK.json`, exactly as committed at the repository root.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    out.push_str(&format!(
        "  \"workloads\": [\n{}\n  ],\n",
        workloads.join(",\n")
    ));
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    out.push_str(&format!(
        "  \"end_to_end\": [\n{}\n  ],\n",
        end_to_end.join(",\n")
    ));
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|(name, unit, better)| {
            format!("    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}")
        })
        .collect();
    out.push_str(&format!(
        "  \"per_layer\": [\n{}\n  ]\n}}\n",
        per_layer.join(",\n")
    ));
    out
}
