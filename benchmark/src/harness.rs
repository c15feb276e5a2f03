//! Driving the engine: service wiring, the timed phases, and the durable
//! lifecycle (cut, kill, recover).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use nurd_core::{NurdConfig, NurdPredictor, RefitPolicy, WarmRefitConfig};
use nurd_data::{OnlinePredictor, TaskEvent};
use nurd_health::{HealthAggregator, HealthConfig};
use nurd_serve::{
    EngineConfig, EngineReport, EngineService, EngineStats, MitigatorFactory, OverloadPolicy,
    PersistenceConfig, PredictorFactory, RecoverReport, ServiceConfig,
};

use crate::reference::Reference;
use crate::workloads::Workload;
use crate::wrappers::{FitCounted, FloorPredictor, Recorder, StampObserver, Timed, TimedPolicy};

pub const WARMUP_FRACTION: f64 = 0.04;
/// Mid-stream `checkpoint()` calls before the cut of a durable run.
pub const MID_CHECKPOINTS: usize = 3;
/// A durable run is cut at the first valid index at or past this share.
pub const CUT_FRACTION: f64 = 0.55;
/// A scored barrier whose stamp has not arrived after this long is a
/// harness error.
const STAMP_TIMEOUT: Duration = Duration::from_secs(60);
/// A held engine is let go once this many events are queued behind the
/// barrier it sits in: half of a shard's queue, so that no push can block
/// on a full one (`queue_capacity` is 4096).
const HELD_MAX: usize = 2048;

pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// One producer needs one core; the rest drain.
pub fn drain_workers() -> usize {
    available_parallelism().saturating_sub(1).max(1)
}

fn engine_config() -> EngineConfig {
    EngineConfig {
        shards: 4,
        warmup_fraction: WARMUP_FRACTION,
        queue_capacity: Some(4096),
        overload: OverloadPolicy::Block,
        balance: None,
    }
}

fn service_config() -> ServiceConfig {
    ServiceConfig {
        drain_workers: drain_workers(),
        ..ServiceConfig::default()
    }
}

pub fn nurd_config() -> NurdConfig {
    NurdConfig::default().with_refit_policy(RefitPolicy::Warm(WarmRefitConfig::default()))
}

/// The workload's predictor for `job`; wrapped in [`Timed`] when traced.
pub fn predictor(
    workload: &Workload,
    job: u64,
    rec: Option<&Arc<Recorder>>,
) -> Box<dyn OnlinePredictor + Send> {
    fn wrap<P: OnlinePredictor + FitCounted + Send + 'static>(
        inner: P,
        job: u64,
        rec: Option<&Arc<Recorder>>,
    ) -> Box<dyn OnlinePredictor + Send> {
        match rec {
            Some(rec) => Box::new(Timed::new(inner, job, Arc::clone(rec))),
            None => Box::new(inner),
        }
    }
    if workload.nurd {
        wrap(NurdPredictor::new(nurd_config()), job, rec)
    } else {
        wrap(FloorPredictor, job, rec)
    }
}

fn predictor_factory(workload: &Workload, rec: Option<&Arc<Recorder>>) -> PredictorFactory {
    let workload = *workload;
    let rec = rec.cloned();
    Box::new(move |spec| predictor(&workload, spec.job, rec.as_ref()))
}

fn mitigator_factory(workload: &Workload, rec: Option<&Arc<Recorder>>) -> Option<MitigatorFactory> {
    if !workload.mitigator {
        return None;
    }
    let plain = nurd_mitigate::threshold_mitigator(1.0, Some(8));
    Some(match rec.cloned() {
        None => plain,
        Some(rec) => {
            Box::new(move |spec| Box::new(TimedPolicy::new(plain(spec), Arc::clone(&rec))))
        }
    })
}

fn observer(workload: &Workload, rec: Option<&Arc<Recorder>>) -> Arc<StampObserver> {
    let health = workload
        .health
        .then(|| HealthAggregator::new(HealthConfig::default()));
    StampObserver::new(health, rec.cloned())
}

/// A running service and the stamping observer attached to it, if any.
pub struct Served {
    pub service: EngineService,
    pub observer: Option<Arc<StampObserver>>,
}

/// Starts the workload's service: volatile, or persistent under `dir`.
/// Mitigator and observer are attached before the first push.
fn start(
    workload: &Workload,
    rec: Option<&Arc<Recorder>>,
    observed: bool,
    dir: Option<&Path>,
) -> Served {
    let factory = predictor_factory(workload, rec);
    let service = match dir {
        None => EngineService::start(engine_config(), service_config(), factory),
        Some(dir) => {
            // A fresh service starts from an empty directory.
            std::fs::remove_dir_all(dir).ok();
            EngineService::start_persistent(
                engine_config(),
                service_config(),
                PersistenceConfig::new(dir),
                factory,
            )
            .expect("start_persistent")
        }
    };
    if let Some(mitigator) = mitigator_factory(workload, rec) {
        assert!(service.attach_mitigator(mitigator));
    }
    let observer = observed.then(|| observer(workload, rec));
    if let Some(observer) = &observer {
        assert!(service.attach_observer(Arc::clone(observer) as _));
    }
    Served { service, observer }
}

/// Starts (and drops) the service once: the service-start part of `setup_s`.
pub fn start_and_drop(workload: &Workload, dir: Option<&Path>) {
    let served = start(workload, None, workload.observed, dir);
    let _ = served.service.close();
}

/// What one full-stream pass produced.
pub struct Pass {
    /// First push to `close()` returning.
    pub wall_s: f64,
    /// Producer time inside the push loop.
    pub push_s: f64,
    /// Time inside `close()`.
    pub close_s: f64,
    pub pushed: usize,
    pub report: EngineReport,
    pub stats: EngineStats,
    /// Lockstep only: push-of-`Barrier` → stamp, per scored barrier.
    pub latencies_ms: Vec<f64>,
    /// The pass's timeline for [`crate::stats::quiet_wall`]: seconds from
    /// the first push to every [`SEGMENT`]-th stamp, then to the end.
    pub marks: Vec<f64>,
    /// Largest ingress backlog the producer saw (sampled every 512 pushes
    /// of a traced pass; 0 otherwise).
    pub backlog_max: usize,
}

impl Pass {
    pub fn events_per_s(&self) -> f64 {
        self.report.events as f64 / self.wall_s
    }
}

/// Scored barriers per timeline segment (about 40 ms of model work).
const SEGMENT: usize = 16;

/// Seconds from `start` to every [`SEGMENT`]-th stamp the observer
/// logged, closed by `end`. Without an observer: just `end`.
fn marks(start: Instant, observer: Option<&Arc<StampObserver>>, end: Instant) -> Vec<f64> {
    let stamps = observer.map_or_else(Vec::new, |o| o.stamps());
    stamps
        .iter()
        .skip(SEGMENT - 1)
        .step_by(SEGMENT)
        .chain(std::iter::once(&end))
        .map(|at| at.saturating_duration_since(start).as_secs_f64())
        .collect()
}

fn finish(
    served: Served,
    start: Instant,
    push_s: f64,
    pushed: usize,
    latencies_ms: Vec<f64>,
    backlog_max: usize,
) -> Pass {
    let closing = Instant::now();
    let report = served.service.close();
    let end = Instant::now();
    let close_s = end.duration_since(closing).as_secs_f64();
    let wall_s = end.duration_since(start).as_secs_f64();
    let stats = served.service.stats();
    Pass {
        marks: marks(start, served.observer.as_ref(), end),
        wall_s,
        push_s,
        close_s,
        pushed,
        report,
        stats,
        latencies_ms,
        backlog_max,
    }
}

/// *Saturated* phase: closed loop, one client. The producer pushes as
/// fast as `Block` back-pressure admits.
pub fn saturated(workload: &Workload, events: Vec<TaskEvent>, rec: Option<&Arc<Recorder>>) -> Pass {
    let served = start(workload, rec, workload.observed, None);
    let handle = served.service.handle();
    let pushed = events.len();
    let mut backlog_max = 0;
    let start = Instant::now();
    for (i, event) in events.into_iter().enumerate() {
        assert!(handle.push(event), "push rejected on a live service");
        if rec.is_some() && i % 512 == 0 {
            backlog_max = backlog_max.max(handle.stats().backlog_per_shard.iter().sum());
        }
    }
    let push_s = start.elapsed().as_secs_f64();
    finish(served, start, push_s, pushed, Vec::new(), backlog_max)
}

/// *Lockstep* phase: closed loop, one scored barrier outstanding. After
/// each `Barrier` the reference saw scored, the producer waits for the
/// observer's stamp of that `(job, ordinal)`.
///
/// On a gated workload ([`Workload::gated`]) the engine stands still from
/// each stamp until the next scored barrier is queued behind its segment;
/// that barrier's clock starts when the engine is let go.
pub fn lockstep(
    workload: &Workload,
    events: Vec<TaskEvent>,
    reference: &Reference,
    rec: Option<&Arc<Recorder>>,
    dir: Option<&Path>,
) -> Pass {
    let served = start(workload, rec, true, dir);
    let observer = Arc::clone(served.observer.as_ref().expect("lockstep observes"));
    let handle = served.service.handle();
    let pushed = events.len();
    let mut latencies_ms = Vec::with_capacity(reference.scored_barriers);
    if workload.gated() {
        observer.gate();
    }
    // Gated: the barrier inside whose callback the drain worker is held,
    // and how many events are queued behind it.
    let mut held: Option<(u64, usize)> = None;
    let mut behind = 0;
    let start = Instant::now();
    for event in events {
        let awaited = match event {
            TaskEvent::Barrier { job, ordinal, .. } if reference.scored[job as usize][ordinal] => {
                Some((job, ordinal))
            }
            _ => None,
        };
        let Some((job, ordinal)) = awaited else {
            assert!(handle.push(event), "push rejected on a live service");
            behind += 1;
            if behind == HELD_MAX {
                if let Some((job, ordinal)) = held.take() {
                    observer.release(job, ordinal);
                }
            }
            continue;
        };
        let note = |at: Instant| {
            if let Some(rec) = rec {
                rec.note_push(job, ordinal, at);
            }
        };
        // The clock starts at the push, or when the engine is let go.
        let pushed_at = match held.take() {
            None => {
                let at = Instant::now();
                note(at);
                assert!(handle.push(event), "push rejected on a live service");
                at
            }
            Some((held_job, held_ordinal)) => {
                assert!(handle.push(event), "push rejected on a live service");
                let at = Instant::now();
                note(at);
                observer.release(held_job, held_ordinal);
                at
            }
        };
        let stamp = observer.wait_for(job, ordinal, STAMP_TIMEOUT);
        if let Some(rec) = rec {
            rec.span("barrier_commit", pushed_at, stamp, job, ordinal);
        }
        latencies_ms.push(stamp.duration_since(pushed_at).as_secs_f64() * 1e3);
        if workload.gated() {
            held = Some((job, ordinal));
            behind = 0;
        }
    }
    if let Some((job, ordinal)) = held {
        observer.release(job, ordinal);
    }
    let push_s = start.elapsed().as_secs_f64();
    finish(served, start, push_s, pushed, latencies_ms, 0)
}

/// What the saturated phase produced: a full pass, or on a durable
/// workload the run up to the cut (it ends in a kill and has no report).
pub enum Saturated {
    Full(Pass),
    ToCut(Crashed),
}

impl Saturated {
    /// Events applied when the clock stopped.
    pub fn served(&self) -> usize {
        match self {
            Saturated::Full(pass) => pass.report.events,
            Saturated::ToCut(crashed) => crashed.cut,
        }
    }

    pub fn wall_s(&self) -> f64 {
        match self {
            Saturated::Full(pass) => pass.wall_s,
            Saturated::ToCut(crashed) => crashed.wall_to_cut_s,
        }
    }

    pub fn rate(&self) -> f64 {
        self.served() as f64 / self.wall_s()
    }

    pub fn marks(&self) -> &[f64] {
        match self {
            Saturated::Full(pass) => &pass.marks,
            Saturated::ToCut(crashed) => &crashed.marks,
        }
    }

    pub fn stats(&self) -> &EngineStats {
        match self {
            Saturated::Full(pass) => &pass.stats,
            Saturated::ToCut(crashed) => &crashed.stats,
        }
    }
}

/// The events [`saturated_phase`] consumes: the whole stream, or on a
/// durable workload the stream up to the kill.
pub fn saturated_input(workload: &Workload, events: &[TaskEvent], cut: usize) -> Vec<TaskEvent> {
    if workload.durable {
        crash_prefix(events, cut)
    } else {
        events.to_vec()
    }
}

/// The saturated phase of `workload`: [`saturated`], or on a durable
/// workload (`dir` given) the durable ingest up to the cut with its
/// `checkpoint()` stalls — first push to the cut `checkpoint()` returning.
pub fn saturated_phase(
    workload: &Workload,
    input: Vec<TaskEvent>,
    cut: usize,
    rec: Option<&Arc<Recorder>>,
    dir: Option<&Path>,
) -> Saturated {
    match dir {
        Some(dir) => Saturated::ToCut(run_to_crash(
            workload,
            input,
            cut,
            MID_CHECKPOINTS,
            dir,
            rec,
        )),
        None => Saturated::Full(saturated(workload, input, rec)),
    }
}

/// What the open-loop diagnostic saw.
pub struct Paced {
    /// Due time of each scored barrier → its `health.observe` end.
    pub latencies_ms: Vec<f64>,
    /// How far behind its schedule the generator ever ran.
    pub late_max_ms: f64,
    pub pass: Pass,
}

/// *Paced* diagnostic: open loop at a fixed `rate` events/s. Each event
/// is due at `start + i / rate`; latency counts from the due time.
pub fn paced(
    workload: &Workload,
    events: Vec<TaskEvent>,
    reference: &Reference,
    rate: f64,
    rec: &Arc<Recorder>,
) -> Paced {
    let served = start(workload, Some(rec), true, None);
    let handle = served.service.handle();
    let pushed = events.len();
    let mut due_ns: BTreeMap<(u64, usize), u64> = BTreeMap::new();
    let mut late_max = Duration::ZERO;
    let start = Instant::now();
    for (i, event) in events.into_iter().enumerate() {
        let due = start + Duration::from_secs_f64(i as f64 / rate);
        loop {
            let now = Instant::now();
            if now >= due {
                late_max = late_max.max(now - due);
                break;
            }
            // Sleep through long gaps, spin through the last stretch.
            if due - now > Duration::from_micros(300) {
                std::thread::sleep(due - now - Duration::from_micros(200));
            } else {
                std::hint::spin_loop();
            }
        }
        if let TaskEvent::Barrier { job, ordinal, .. } = event {
            if reference.scored[job as usize][ordinal] {
                due_ns.insert((job, ordinal), rec.ns(due));
            }
        }
        assert!(handle.push(event), "push rejected on a live service");
    }
    let push_s = start.elapsed().as_secs_f64();
    let pass = finish(served, start, push_s, pushed, Vec::new(), 0);
    let latencies_ms = rec
        .spans()
        .iter()
        .filter(|s| s.name == "health.observe")
        .filter_map(|s| {
            let due = due_ns.get(&(s.job, s.ordinal))?;
            Some(s.end_ns.saturating_sub(*due) as f64 / 1e6)
        })
        .collect();
    Paced {
        latencies_ms,
        late_max_ms: late_max.as_secs_f64() * 1e3,
        pass,
    }
}

/// A persistence directory left behind by a killed service.
pub struct Crashed {
    pub dir: PathBuf,
    /// Events applied when the cut snapshot was written.
    pub cut: usize,
    /// Events pushed before the kill (`cut` plus the WAL tail).
    pub pushed: usize,
    /// First push → cut `checkpoint()` returning, backlog drained.
    pub wall_to_cut_s: f64,
    /// The timeline up to the cut (see [`Pass::marks`]).
    pub marks: Vec<f64>,
    /// Jobs live in the engine at the cut.
    pub live_jobs: usize,
    pub cut_generation: u64,
    /// Each `checkpoint()` call's duration (three mid-stream, one at the cut).
    pub checkpoint_ms: Vec<f64>,
    pub snapshot_bytes: u64,
    /// Bytes of the WAL tail segments ÷ events they hold.
    pub wal_bytes_per_event: f64,
    pub stats: EngineStats,
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// The events a durable run pushes before it is killed: up to `cut`, then
/// 5 % of the stream more (the WAL tail).
pub fn crash_prefix(events: &[TaskEvent], cut: usize) -> Vec<TaskEvent> {
    events[..(cut + events.len() / 20).min(events.len())].to_vec()
}

/// The durable lifecycle up to the kill: push `prefix` (see
/// [`crash_prefix`]) to `cut` with `checkpoints` mid-stream `checkpoint()`
/// calls from the producer, drain, `checkpoint()` at the cut, push the
/// rest of `prefix`, `quiesce`, drop without `close`.
pub fn run_to_crash(
    workload: &Workload,
    prefix: Vec<TaskEvent>,
    cut: usize,
    checkpoints: usize,
    dir: &Path,
    rec: Option<&Arc<Recorder>>,
) -> Crashed {
    let pushed = prefix.len();
    let served = start(workload, rec, workload.observed, Some(dir));
    let handle = served.service.handle();
    let mut checkpoint_ms = Vec::new();
    let mut checkpoint = |service: &EngineService| {
        if let Some(rec) = rec {
            rec.set_snapshot_window(true);
        }
        let at = Instant::now();
        let generation = service.checkpoint().expect("checkpoint");
        checkpoint_ms.push(at.elapsed().as_secs_f64() * 1e3);
        if let Some(rec) = rec {
            rec.set_snapshot_window(false);
        }
        generation
    };
    let every = (cut / (checkpoints + 1)).max(1);
    let mut prefix = prefix.into_iter();
    let start = Instant::now();
    for (i, event) in prefix.by_ref().take(cut).enumerate() {
        assert!(handle.push(event), "push rejected on a live service");
        if checkpoints > 0 && (i + 1) % every == 0 && (i + 1) / every <= checkpoints {
            checkpoint(&served.service);
        }
    }
    served.service.quiesce();
    let cut_generation = checkpoint(&served.service);
    let at_cut = Instant::now();
    let wall_to_cut_s = at_cut.duration_since(start).as_secs_f64();
    let marks = marks(start, served.observer.as_ref(), at_cut);
    let live_jobs = served.service.stats().jobs_per_shard.iter().sum();
    for event in prefix {
        assert!(handle.push(event), "push rejected on a live service");
    }
    served.service.quiesce();
    let stats = served.service.stats();
    drop(served); // the kill: no close(), no shutdown snapshot

    let wal_bytes: u64 = (0..engine_config().shards)
        .map(|shard| file_len(&dir.join(format!("wal-{cut_generation}-{shard}.log"))))
        .sum();
    Crashed {
        dir: dir.to_path_buf(),
        cut,
        pushed,
        wall_to_cut_s,
        marks,
        live_jobs,
        cut_generation,
        checkpoint_ms,
        snapshot_bytes: file_len(&dir.join(format!("snap-{cut_generation}.bin"))),
        wal_bytes_per_event: wal_bytes as f64 / (pushed - cut).max(1) as f64,
        stats,
    }
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::remove_dir_all(to).ok();
    std::fs::create_dir_all(to).expect("create scratch dir");
    for entry in std::fs::read_dir(from).expect("read crashed dir") {
        let entry = entry.expect("dir entry");
        std::fs::copy(entry.path(), to.join(entry.file_name())).expect("copy artifact");
    }
}

/// `EngineService::recover` on a fresh copy of `crashed` (recovery
/// rewrites the directory, so the original stays reusable). Returns the
/// serving service, the engine's receipt, and the `recover()` call's
/// duration in seconds.
pub fn recover(
    workload: &Workload,
    crashed: &Crashed,
    scratch: &Path,
    rec: Option<&Arc<Recorder>>,
) -> (Served, RecoverReport, f64) {
    copy_dir(&crashed.dir, scratch);
    let factory = predictor_factory(workload, rec);
    let mitigator = mitigator_factory(workload, rec);
    let observer = workload.observed.then(|| observer(workload, rec));
    let persistence = PersistenceConfig::new(scratch);
    let at = Instant::now();
    let recovered = match &observer {
        Some(observer) => EngineService::recover_with_observer(
            persistence,
            engine_config(),
            service_config(),
            factory,
            mitigator,
            Arc::clone(observer) as _,
        ),
        None => EngineService::recover(persistence, engine_config(), service_config(), factory),
    };
    let recover_s = at.elapsed().as_secs_f64();
    let (service, report) = recovered.expect("recover");
    (Served { service, observer }, report, recover_s)
}

/// Resumes every job's stream from its durable prefix and closes.
pub fn finish_recovered(
    served: Served,
    receipt: &RecoverReport,
    events: &[TaskEvent],
) -> (EngineReport, EngineStats) {
    let handle = served.service.handle();
    let mut position: BTreeMap<u64, u64> = BTreeMap::new();
    for event in events {
        let slot = position.entry(event.job()).or_insert(0);
        let index = *slot;
        *slot += 1;
        if index < receipt.events_seen.get(&event.job()).copied().unwrap_or(0) {
            continue;
        }
        assert!(
            handle.push(event.clone()),
            "push rejected on a recovered service"
        );
    }
    let report = served.service.close();
    let stats = served.service.stats();
    (report, stats)
}
