//! The four workloads: what each fleet looks like, how it is generated,
//! and where a durable run of it may be cut.

use std::collections::HashMap;
use std::time::Instant;

use nurd_data::{JobTrace, TaskEvent};
use nurd_trace::{NodeModelConfig, SuiteConfig, TraceStyle};

/// Everything that distinguishes one workload from another. The names are
/// final: later issues cite them.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    style: TraceStyle,
    jobs: usize,
    tasks: (usize, usize),
    checkpoints: usize,
    node_model: bool,
    /// Arrival spread handed to `staggered_fleet_events`.
    spread: f64,
    /// Seed of the job population. Fixed per workload: `--seed` draws the
    /// arrival order only, so every seed presents the same model work.
    population_seed: u64,
    /// NURD predictors (warm refit policy) or the model-free floor.
    pub nurd: bool,
    /// `threshold_mitigator(1.0, Some(8))` attached.
    pub mitigator: bool,
    /// The stamping observer forwards to `nurd_health::HealthAggregator`.
    pub health: bool,
    /// The saturated phase runs with an observer attached (the scored
    /// barrier path); without one it takes the plain `predict` branch.
    pub observed: bool,
    /// Saturated and lockstep phases go through `start_persistent`.
    pub durable: bool,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "fleet_google",
        why: "Deployed closed loop at the paper's granularity; few scored barriers per job, so cold GBT fits do most of the work.",
        style: TraceStyle::Google,
        jobs: 120,
        tasks: (100, 140),
        checkpoints: 12,
        node_model: true,
        spread: 6.0 * 120.0,
        population_seed: 0x5E8E,
        nurd: true,
        mitigator: true,
        health: true,
        observed: true,
        durable: false,
    },
    Workload {
        name: "giant_alibaba",
        why: "Few long big jobs: warm refits and IRLS dominate and each barrier queues behind thousands of Progress events.",
        style: TraceStyle::Alibaba,
        jobs: 16,
        tasks: (1500, 2500),
        checkpoints: 48,
        node_model: false,
        spread: 200.0,
        population_seed: 0xA11B,
        nurd: true,
        mitigator: false,
        health: false,
        observed: true,
        durable: false,
    },
    Workload {
        name: "ingest_floor",
        why: "Model-free predictor: only serve, runtime and data work, so it bypasses every model optimisation and exercises queue and apply changes.",
        style: TraceStyle::Google,
        jobs: 600,
        tasks: (100, 140),
        checkpoints: 12,
        node_model: true,
        spread: 6.0 * 600.0,
        population_seed: 0xF100,
        nurd: false,
        mitigator: false,
        health: false,
        observed: false,
        durable: false,
    },
    Workload {
        name: "durable_recover",
        why: "Burst-admitted fleet through start_persistent: WAL and snapshot writes beside decode, restore and replay, so a gain for one that costs the other shows.",
        style: TraceStyle::Google,
        jobs: 100,
        tasks: (100, 140),
        checkpoints: 12,
        node_model: true,
        spread: 20.0,
        population_seed: 0xD07A,
        nurd: true,
        mitigator: false,
        health: false,
        observed: true,
        durable: true,
    },
];

pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// The generated inputs of one run: the job traces (for the sequential
/// reference) and the fleet's event stream (all the engine ever sees).
pub struct Inputs {
    pub jobs: Vec<JobTrace>,
    pub events: Vec<TaskEvent>,
    pub generate_s: f64,
    pub lower_s: f64,
}

pub const QUANTILE: f64 = 0.9;

impl Workload {
    /// Generates the fleet. `quick` keeps a tenth of the jobs.
    pub fn generate(&self, seed: u64, quick: bool) -> Inputs {
        let jobs = if quick {
            (self.jobs / 10).max(2)
        } else {
            self.jobs
        };
        let mut config = SuiteConfig::new(self.style)
            .with_jobs(jobs)
            .with_task_range(self.tasks.0, self.tasks.1)
            .with_checkpoints(self.checkpoints)
            .with_seed(self.population_seed);
        if self.node_model {
            config = config.with_node_model(NodeModelConfig::default());
        }
        let start = Instant::now();
        let jobs = nurd_trace::generate_suite(&config);
        let generate_s = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let events = nurd_trace::staggered_fleet_events(&jobs, QUANTILE, self.spread, seed);
        let lower_s = start.elapsed().as_secs_f64();
        Inputs {
            jobs,
            events,
            generate_s,
            lower_s,
        }
    }

    /// Whether the lockstep phase holds the engine still between timed
    /// barriers and times each from the moment it lets go: the model-free
    /// workload's.
    ///
    /// A model-free barrier commits in microseconds and the worker drains
    /// about as fast as the producer pushes. Pushed into a running engine,
    /// its latency is whatever backlog the race of the two threads left,
    /// or the wake-up of a parked worker, which on this kind of host takes
    /// 5 or 28 microseconds depending on the hypervisor's mood (quartile
    /// spread over ten runs: 27 % at the driver's check). Behind a held
    /// engine it is the work the engine does: one hot thread applying the
    /// barrier's whole segment (about 150 events) and then the barrier.
    pub fn gated(&self) -> bool {
        !self.nurd
    }

    /// The stream of the recover phase: the same jobs, all arriving at
    /// once. The whole fleet is resident at the cut, and — no arrival
    /// offsets being drawn — what `recover()` has to do is the same for
    /// every seed (the WAL tail of a staggered stream holds 1–4 scored
    /// barriers of `giant_alibaba` depending on the order, 15 % of
    /// `recover_s`).
    pub fn burst_events(&self, jobs: &[JobTrace]) -> Vec<TaskEvent> {
        nurd_trace::staggered_fleet_events(jobs, QUANTILE, 0.0, 0)
    }
}

/// Where a durable run may be cut and killed: the first index at or past
/// `fraction` of the stream at which every live job (started, not ended)
/// has closed at least one barrier. Returns the number of events before
/// the cut.
///
/// The rule exists because of a defect on the seed commit (see
/// "Findings on the seed" in the README): a snapshot holding a
/// just-admitted job does not decode, and `recover` then starts empty.
pub fn cut_index(events: &[TaskEvent], fraction: f64) -> usize {
    let from = (events.len() as f64 * fraction) as usize;
    // Live jobs → whether their first barrier has been pushed.
    let mut live: HashMap<u64, bool> = HashMap::new();
    for (i, event) in events.iter().enumerate() {
        if i >= from && live.values().all(|&closed| closed) {
            return i;
        }
        match event {
            TaskEvent::JobStart { spec } => {
                live.insert(spec.job, false);
            }
            TaskEvent::JobEnd { job, .. } => {
                live.remove(job);
            }
            TaskEvent::Barrier { job, .. } => {
                if let Some(closed) = live.get_mut(job) {
                    *closed = true;
                }
            }
            _ => {}
        }
    }
    events.len()
}
