//! Benchmark-owned wrappers handed to the engine through its public
//! factories. They are the only instruments: every per-layer time is
//! taken around a call *into* a layer, none inside one.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use nurd_core::NurdPredictor;
use nurd_data::{
    BarrierView, Checkpoint, MitigationAction, MitigationPolicy, OnlinePredictor, ScoredPrediction,
    StreamContext, TaskScore,
};
use nurd_health::HealthAggregator;
use nurd_serve::{HealthObserver, JobReport};

/// One timed interval at a layer boundary. Spans of one request share its
/// `(job, ordinal)`; the request's root is its `barrier_commit` span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub job: u64,
    pub ordinal: usize,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Refit counters summed over every predictor a pass built.
#[derive(Debug, Clone, Copy, Default)]
pub struct FitCounts {
    pub cold_fits: usize,
    pub warm_fits: usize,
    pub reuses: usize,
    pub drift_rebins: usize,
    pub cap_resets: usize,
    pub fit_failures: usize,
}

/// Time and size of the predictor-state calls the engine made while the
/// snapshot window was open (or, for restores, at all).
#[derive(Debug, Clone, Copy, Default)]
pub struct StateCalls {
    pub snapshot_ns: u64,
    pub snapshot_calls: u64,
    pub snapshot_bytes: u64,
    pub restore_ns: u64,
    pub restore_calls: u64,
}

/// In-memory sink of one traced pass; written out when the pass ends.
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    /// Producer-side push instants of awaited barriers, read by the timed
    /// predictor to close the `serve.queue_wait` span.
    pushes: Mutex<HashMap<(u64, usize), Instant>>,
    fits: Mutex<FitCounts>,
    state: Mutex<StateCalls>,
    /// Open only around `EngineService::checkpoint`, so the admission
    /// probe and donor-cache calls of `snapshot_state` stay out of the mean.
    snapshot_window: AtomicBool,
}

impl Recorder {
    pub fn new() -> Arc<Self> {
        Arc::new(Recorder {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            pushes: Mutex::new(HashMap::new()),
            fits: Mutex::new(FitCounts::default()),
            state: Mutex::new(StateCalls::default()),
            snapshot_window: AtomicBool::new(false),
        })
    }

    /// Nanoseconds from this recorder's epoch to `at`.
    pub fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }

    pub fn span(&self, name: &'static str, start: Instant, end: Instant, job: u64, ordinal: usize) {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            job,
            ordinal,
        };
        self.spans.lock().expect("span sink").push(span);
    }

    pub fn note_push(&self, job: u64, ordinal: usize, at: Instant) {
        self.pushes
            .lock()
            .expect("push map")
            .insert((job, ordinal), at);
    }

    pub fn set_snapshot_window(&self, open: bool) {
        self.snapshot_window.store(open, Ordering::SeqCst);
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span sink").clone()
    }

    pub fn fits(&self) -> FitCounts {
        *self.fits.lock().expect("fit counts")
    }

    pub fn state_calls(&self) -> StateCalls {
        *self.state.lock().expect("state calls")
    }
}

/// Sum of a span name's durations in seconds, and how many there were.
pub fn busy(spans: &[Span], name: &str) -> (f64, usize) {
    let mut total = 0u64;
    let mut calls = 0;
    for s in spans.iter().filter(|s| s.name == name) {
        total += s.end_ns - s.start_ns;
        calls += 1;
    }
    (total as f64 / 1e9, calls)
}

/// Predictors whose refit counters the `core.*` rows read.
pub trait FitCounted {
    fn fit_counts(&self) -> FitCounts;
}

impl FitCounted for NurdPredictor {
    fn fit_counts(&self) -> FitCounts {
        let s = self.refit_stats();
        FitCounts {
            cold_fits: s.cold_fits,
            warm_fits: s.warm_fits,
            reuses: s.reuses,
            drift_rebins: s.drift_rebins,
            cap_resets: s.cap_resets,
            fit_failures: self.fit_failures(),
        }
    }
}

/// The `core` layer's instrument: times every call the engine makes into
/// the predictor and forwards the whole `OnlinePredictor` surface, so the
/// engine keeps the job in blob-mode persistence.
pub struct Timed<P: OnlinePredictor + FitCounted> {
    inner: P,
    job: u64,
    rec: Arc<Recorder>,
}

impl<P: OnlinePredictor + FitCounted> Timed<P> {
    pub fn new(inner: P, job: u64, rec: Arc<Recorder>) -> Self {
        Timed { inner, job, rec }
    }

    fn enter(&self, ordinal: usize) -> Instant {
        let entry = Instant::now();
        let pushed = self
            .rec
            .pushes
            .lock()
            .expect("push map")
            .remove(&(self.job, ordinal));
        if let Some(pushed) = pushed {
            self.rec
                .span("serve.queue_wait", pushed, entry, self.job, ordinal);
        }
        entry
    }
}

impl<P: OnlinePredictor + FitCounted> OnlinePredictor for Timed<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn begin_stream(&mut self, ctx: &StreamContext) {
        self.inner.begin_stream(ctx);
    }

    fn predict(&mut self, checkpoint: &Checkpoint<'_>) -> Vec<usize> {
        let entry = self.enter(checkpoint.ordinal);
        let flagged = self.inner.predict(checkpoint);
        self.rec.span(
            "core.predict",
            entry,
            Instant::now(),
            self.job,
            checkpoint.ordinal,
        );
        flagged
    }

    fn predict_scored(&mut self, checkpoint: &Checkpoint<'_>) -> ScoredPrediction {
        let entry = self.enter(checkpoint.ordinal);
        let scored = self.inner.predict_scored(checkpoint);
        self.rec.span(
            "core.predict",
            entry,
            Instant::now(),
            self.job,
            checkpoint.ordinal,
        );
        scored
    }

    fn set_parallelism(&mut self, threads: usize) {
        self.inner.set_parallelism(threads);
    }

    fn snapshot_state(&self) -> Option<Vec<u8>> {
        let start = Instant::now();
        let blob = self.inner.snapshot_state();
        if self.rec.snapshot_window.load(Ordering::SeqCst) {
            let mut state = self.rec.state.lock().expect("state calls");
            state.snapshot_ns += start.elapsed().as_nanos() as u64;
            state.snapshot_calls += 1;
            state.snapshot_bytes += blob.as_ref().map_or(0, Vec::len) as u64;
        }
        blob
    }

    fn restore_state(&mut self, bytes: &[u8]) -> bool {
        let start = Instant::now();
        let ok = self.inner.restore_state(bytes);
        let mut state = self.rec.state.lock().expect("state calls");
        state.restore_ns += start.elapsed().as_nanos() as u64;
        state.restore_calls += 1;
        ok
    }
}

impl<P: OnlinePredictor + FitCounted> Drop for Timed<P> {
    /// The engine drops a job's predictor when the job finalizes; its
    /// refit counters are folded into the pass total here.
    fn drop(&mut self) {
        let c = self.inner.fit_counts();
        if let Ok(mut total) = self.rec.fits.lock() {
            total.cold_fits += c.cold_fits;
            total.warm_fits += c.warm_fits;
            total.reuses += c.reuses;
            total.drift_rebins += c.drift_rebins;
            total.cap_resets += c.cap_resets;
            total.fit_failures += c.fit_failures;
        }
    }
}

/// The `ingest_floor` predictor: no model at all. It flags the running
/// tasks whose id is a multiple of eight, because a predictor that flags
/// nothing scores `macro_f1 = 0`, and an end-to-end metric must not be 0.
pub struct FloorPredictor;

impl OnlinePredictor for FloorPredictor {
    fn name(&self) -> &str {
        "FLOOR"
    }

    fn predict(&mut self, checkpoint: &Checkpoint<'_>) -> Vec<usize> {
        checkpoint
            .running
            .iter()
            .map(|r| r.id)
            .filter(|id| id % 8 == 0)
            .collect()
    }

    fn snapshot_state(&self) -> Option<Vec<u8>> {
        Some(Vec::new())
    }

    fn restore_state(&mut self, bytes: &[u8]) -> bool {
        bytes.is_empty()
    }
}

impl FitCounted for FloorPredictor {
    fn fit_counts(&self) -> FitCounts {
        FitCounts::default()
    }
}

/// The `mitigate` layer's instrument.
pub struct TimedPolicy {
    inner: Box<dyn MitigationPolicy + Send>,
    rec: Arc<Recorder>,
}

impl TimedPolicy {
    pub fn new(inner: Box<dyn MitigationPolicy + Send>, rec: Arc<Recorder>) -> Self {
        TimedPolicy { inner, rec }
    }
}

impl MitigationPolicy for TimedPolicy {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn clone_budget(&self) -> Option<usize> {
        self.inner.clone_budget()
    }

    fn decide(&mut self, view: &BarrierView<'_>) -> Vec<(usize, MitigationAction)> {
        let start = Instant::now();
        let actions = self.inner.decide(view);
        self.rec.span(
            "mitigate.decide",
            start,
            Instant::now(),
            view.job,
            view.ordinal,
        );
        actions
    }
}

/// The benchmark's `HealthObserver`: stamps the instant a scored
/// barrier's scores reach a consumer (what the lockstep producer waits
/// for), forwards to the `health` layer when the workload has one, and in
/// a traced pass times that forward.
pub struct StampObserver {
    inner: Option<HealthAggregator>,
    stamps: Mutex<Stamps>,
    arrived: Condvar,
    /// Set by [`StampObserver::gate`]: the drain worker stays inside each
    /// `observe_barrier` call, after the stamp, until `released` names it.
    gated: AtomicBool,
    /// [`stamp_key`] of the barrier [`StampObserver::release`] last named.
    released: AtomicU64,
    rec: Option<Arc<Recorder>>,
}

/// A held callback that is not released within this long is a harness error.
const GATE_TIMEOUT: Duration = Duration::from_secs(60);

/// `(job, ordinal)` in one word, never 0.
fn stamp_key(job: u64, ordinal: usize) -> u64 {
    ((job << 24) | ordinal as u64) + 1
}

#[derive(Default)]
struct Stamps {
    latest: Option<(u64, usize, Instant)>,
    /// Every stamp of the pass, arrival order.
    all: Vec<Instant>,
}

impl StampObserver {
    pub fn new(inner: Option<HealthAggregator>, rec: Option<Arc<Recorder>>) -> Arc<Self> {
        Arc::new(StampObserver {
            inner,
            stamps: Mutex::new(Stamps::default()),
            arrived: Condvar::new(),
            gated: AtomicBool::new(false),
            released: AtomicU64::new(0),
            rec,
        })
    }

    /// From now on every stamped barrier holds the drain worker, inside
    /// the engine's call to this observer, until it is [`release`]d: the
    /// engine stands still, events queue up behind the barrier, and the
    /// caller decides when they are applied.
    ///
    /// [`release`]: StampObserver::release
    pub fn gate(&self) {
        self.gated.store(true, Ordering::Release);
    }

    /// Lets the held callback of `(job, ordinal)` return.
    pub fn release(&self, job: u64, ordinal: usize) {
        self.released
            .store(stamp_key(job, ordinal), Ordering::Release);
    }

    /// Blocks until the stamp of `(job, ordinal)` arrives and returns it.
    ///
    /// # Panics
    ///
    /// Panics after `timeout`: the reference pass saw this barrier scored,
    /// so a missing stamp is a harness error, not a measurement.
    pub fn wait_for(&self, job: u64, ordinal: usize, timeout: Duration) -> Instant {
        let deadline = Instant::now() + timeout;
        let mut stamps = self.stamps.lock().expect("stamp slot");
        loop {
            if let Some((j, o, at)) = stamps.latest {
                if (j, o) == (job, ordinal) {
                    return at;
                }
            }
            let left = deadline.saturating_duration_since(Instant::now());
            assert!(
                !left.is_zero(),
                "no stamp for barrier ({job}, {ordinal}) within {timeout:?}"
            );
            stamps = self
                .arrived
                .wait_timeout(stamps, left)
                .expect("stamp slot")
                .0;
        }
    }

    /// The instants of every scored barrier's stamp so far, arrival order.
    pub fn stamps(&self) -> Vec<Instant> {
        self.stamps.lock().expect("stamp slot").all.clone()
    }
}

impl HealthObserver for StampObserver {
    fn observe_barrier(
        &self,
        job: u64,
        ordinal: usize,
        time: f64,
        nodes: Option<&[u32]>,
        scores: &[TaskScore],
    ) {
        let start = Instant::now();
        if let Some(inner) = &self.inner {
            inner.observe_barrier(job, ordinal, time, nodes, scores);
        }
        let end = Instant::now();
        {
            let mut stamps = self.stamps.lock().expect("stamp slot");
            stamps.latest = Some((job, ordinal, end));
            stamps.all.push(end);
        }
        self.arrived.notify_all();
        if let Some(rec) = &self.rec {
            rec.span("health.observe", start, end, job, ordinal);
        }
        if self.gated.load(Ordering::Acquire) {
            while self.released.load(Ordering::Acquire) != stamp_key(job, ordinal) {
                assert!(
                    end.elapsed() < GATE_TIMEOUT,
                    "barrier ({job}, {ordinal}) was never released"
                );
                std::hint::spin_loop();
            }
        }
    }

    fn observe_finalized(&self, report: &JobReport, nodes: Option<&[u32]>, straggled: &[bool]) {
        let start = Instant::now();
        if let Some(inner) = &self.inner {
            inner.observe_finalized(report, nodes, straggled);
        }
        if let Some(rec) = &self.rec {
            rec.span("health.finalized", start, Instant::now(), report.job, 0);
        }
    }

    fn snapshot_state(&self) -> Vec<u8> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, HealthObserver::snapshot_state)
    }

    fn restore_state(&self, blob: &[u8]) -> bool {
        self.inner
            .as_ref()
            .is_none_or(|inner| inner.restore_state(blob))
    }
}
