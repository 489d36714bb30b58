//! The in-process optimization service: a bounded priority queue of
//! [`JobSpec`]s executed by a worker pool (built on [`engine::pool`])
//! through the object-safe [`DynOptimizer`](sacga::telemetry::DynOptimizer) API, with per-tenant shared
//! evaluation caches, crash-safe persistence ([`JobStore`]), streaming
//! progress ([`ProgressHub`]) and per-job watchdog health.
//!
//! # Execution model
//!
//! A worker pops the highest-priority job and runs it in *slices* of
//! `spec.slice` generations. At each slice boundary the job's
//! checkpoint is persisted atomically (its state too when the health
//! changed, see [`crate::store`]); if other jobs are
//! waiting the job re-enters the queue (cooperative preemption),
//! otherwise it continues inline. Algorithms that cannot checkpoint
//! (NSGA-II, island) always run to completion in one slice.
//!
//! # Crash safety
//!
//! [`Server::open`] rescans the store: terminal jobs are registered
//! without reading their event streams (a subscriber reads
//! `events.jsonl` on demand); anything else — including a job whose
//! `state.job` is torn because the previous daemon died mid-write — is
//! re-enqueued. The event
//! stream is trimmed back to the persisted checkpoint's generation so
//! a resumed run appends exactly the events the killed run would have
//! produced, and the final front is bit-identical to an uninterrupted
//! run of the same spec.
//!
//! # Resident state
//!
//! A finished job costs little memory however many the daemon has
//! served: at its terminal transition its event lines leave memory (its
//! stream and `debug` tail are read back from `events.jsonl`) and its
//! `job`-labeled registry series fold into their `{tenant, arm}` totals
//! ([`MetricsRegistry::retire`]); its own counts stay in its
//! [`JobState`].

use std::collections::HashMap;
use std::fs;
use std::io::BufWriter;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::error::ServerError;
use crate::hub::{read_events, ProgressHub, HUB_CAPACITY};
use crate::queue::{JobQueue, PopMode};
use crate::spec::{JobId, JobSpec};
use crate::store::{JobHealth, JobState, JobStatus, JobStore};
use campaign::CellResult;
use engine::{
    CacheConfig, Counter, EngineMetrics, Gauge, Histogram, MetricsRegistry, SharedCache, StageNanos,
};
use moea::{Evaluation, RunOutcome};
use sacga::telemetry::{
    DynRunStatus, EventKind, FaultRateAlarm, JsonlSink, RegistrySink, Sink, StallDetector,
};
use sacga::RunEvent;

/// Reference point used for the stall detector's hypervolume when a job
/// enables `stall=`; generous enough to dominate every benchmark front
/// in this workspace. The `dse_run_hypervolume` gauge uses the same
/// point, so the scraped trajectory matches what the detector sees.
const STALL_REF: f64 = 1e3;

/// Event lines the `debug` endpoint returns: the newest of the job's
/// stream (a deliberately small tail — the full stream lives in
/// `events.jsonl`).
pub const FLIGHT_CAPACITY: usize = 256;

/// Tuning of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Maximum queued (not yet running) jobs accepted from clients.
    pub queue_capacity: usize,
    /// Template for per-tenant shared evaluation caches.
    pub cache: CacheConfig,
}

impl ServerConfig {
    /// Defaults: 2 workers, 64 queued jobs, 64Ki-entry tenant caches.
    pub fn new() -> Self {
        ServerConfig {
            workers: 2,
            queue_capacity: 64,
            cache: CacheConfig::with_capacity(1 << 16),
        }
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// A point-in-time snapshot of one job, as reported by status/list.
#[derive(Debug, Clone, PartialEq)]
pub struct JobView {
    /// Job identifier.
    pub id: JobId,
    /// Human-chosen name from the spec.
    pub name: String,
    /// Lifecycle state.
    pub status: JobStatus,
    /// Endpoint health (terminal statuses mask watchdog health).
    pub health: JobHealth,
    /// Generations completed.
    pub generations: usize,
    /// Candidates submitted by this job (exact per-job attribution,
    /// also under a shared tenant cache).
    pub candidates: u64,
    /// Evaluations this job paid for.
    pub evaluations: u64,
    /// Candidates answered from the cache for this job.
    pub cache_hits: u64,
    /// Candidates rejected by the job's surrogate screen, never passed
    /// to the full model (`candidates = evaluations + cache_hits +
    /// screened`).
    pub screened: u64,
    /// Error message for failed jobs.
    pub error: Option<String>,
}

/// Process-level service metrics, registered once per server in the
/// shared registry (label-free: per-job series carry the labels).
struct ServerMetrics {
    jobs_submitted: Counter,
    jobs_completed: Counter,
    jobs_failed: Counter,
    preemptions: Counter,
    slices: Histogram,
    queue_depth: Gauge,
    jobs_running: Gauge,
}

impl ServerMetrics {
    fn register(registry: &MetricsRegistry) -> Self {
        ServerMetrics {
            jobs_submitted: registry.counter("dse_server_jobs_submitted_total", &[]),
            jobs_completed: registry.counter("dse_server_jobs_completed_total", &[]),
            jobs_failed: registry.counter("dse_server_jobs_failed_total", &[]),
            preemptions: registry.counter("dse_server_preemptions_total", &[]),
            slices: registry.histogram(
                "dse_server_slice_seconds",
                &[],
                &engine::metrics::latency_buckets(),
            ),
            queue_depth: registry.gauge("dse_server_queue_depth", &[]),
            jobs_running: registry.gauge("dse_server_jobs_running", &[]),
        }
    }
}

/// Decrements the running-jobs count however its scope exits.
struct RunningGuard<'a>(&'a AtomicUsize);

impl Drop for RunningGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// One job's flight recorder: cumulative per-stage nanoseconds over its
/// whole event stream, kept in memory for the `debug` endpoint while the
/// job is live (post-incident triage without replaying the full
/// `events.jsonl`).
#[derive(Debug, Default)]
struct FlightRecorder {
    stages: StageNanos,
    timed_generations: u64,
}

impl FlightRecorder {
    fn record(&mut self, event: &RunEvent) {
        if let RunEvent::StageTiming { stages, .. } = event {
            self.stages.merge(stages);
            self.timed_generations += 1;
        }
    }
}

/// A point-in-time copy of one job's flight recorder, as served by the
/// `debug` protocol command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightReport {
    /// The newest event lines of the job's stream (at most
    /// [`FLIGHT_CAPACITY`]).
    pub lines: Vec<String>,
    /// Older lines of the stream left out of `lines`.
    pub dropped: u64,
    /// Lines the job's progress hub ring overwrote (see
    /// [`ProgressHub::dropped`]).
    pub hub_dropped: u64,
    /// Cumulative per-stage nanoseconds across all recorded
    /// `StageTiming` events.
    pub stages: StageNanos,
    /// Generations that contributed a `StageTiming` breakdown.
    pub timed_generations: u64,
}

/// The live watchdogs of one job; they survive suspension and requeues
/// so windowed detectors keep their history across slices.
struct WatchdogSet {
    stall: Option<StallDetector>,
    faults: Option<FaultRateAlarm>,
}

impl WatchdogSet {
    fn build(spec: &JobSpec) -> Self {
        let nobj = spec.problem.build().num_objectives();
        WatchdogSet {
            stall: (spec.stall_window > 0)
                .then(|| StallDetector::new(vec![STALL_REF; nobj], spec.stall_window)),
            faults: spec.fault_alarm.map(FaultRateAlarm::new),
        }
    }

    fn replay(&mut self, events: &[RunEvent]) {
        for event in events {
            self.record(event);
        }
    }

    fn record(&mut self, event: &RunEvent) {
        if let Some(stall) = self.stall.as_mut() {
            stall.record(event);
        }
        if let Some(faults) = self.faults.as_mut() {
            faults.record(event);
        }
    }

    /// Fault warnings outrank stall warnings; warnings only accumulate,
    /// so a job that ever stalled stays marked until it terminates.
    fn health(&self) -> JobHealth {
        let faulty = self
            .faults
            .as_ref()
            .is_some_and(|w| !w.warnings().is_empty());
        let stalled = self
            .stall
            .as_ref()
            .is_some_and(|w| !w.warnings().is_empty());
        if faulty {
            JobHealth::Faulty
        } else if stalled {
            JobHealth::Stalled
        } else {
            JobHealth::Healthy
        }
    }
}

/// Per-slice composite sink: disk JSONL + progress hub + watchdogs +
/// flight recorder + registry bridge.
struct SegmentSink<'a> {
    jsonl: &'a mut JsonlSink<BufWriter<fs::File>>,
    hub: &'a ProgressHub,
    /// Lines of the current generation not yet in the hub.
    pending: Vec<String>,
    watch: &'a mut WatchdogSet,
    flight: &'a Mutex<FlightRecorder>,
    run_metrics: &'a mut RegistrySink,
}

impl SegmentSink<'_> {
    /// Hands the pending lines to the hub as one batch. The sink does
    /// this at every `GenerationEnd`, so a live subscriber wakes once per
    /// generation rather than once per event; the worker does it when
    /// the slice returns, before the job changes state.
    fn publish_pending(&mut self) {
        self.hub.publish(std::mem::take(&mut self.pending));
    }
}

impl Sink for SegmentSink<'_> {
    fn record(&mut self, event: &RunEvent) {
        self.jsonl.record(event);
        self.flight.lock().unwrap().record(event);
        self.pending.push(event.to_json());
        if event.kind() == EventKind::GenerationEnd {
            self.publish_pending();
        }
        self.watch.record(event);
        self.run_metrics.record(event);
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.jsonl.flush()
    }
}

/// In-memory companion of one job.
struct JobRuntime {
    spec: JobSpec,
    hub: ProgressHub,
    cancel: AtomicBool,
    state: Mutex<JobState>,
    watch: Mutex<Option<WatchdogSet>>,
    flight: Mutex<FlightRecorder>,
}

impl JobRuntime {
    fn new(spec: JobSpec, state: JobState) -> Self {
        JobRuntime {
            spec,
            hub: ProgressHub::new(),
            cancel: AtomicBool::new(false),
            state: Mutex::new(state),
            watch: Mutex::new(None),
            flight: Mutex::new(FlightRecorder::default()),
        }
    }
}

/// Scrapes the completed-generation count out of checkpoint text (both
/// SACGA and MESACGA checkpoints embed an engine-state `gen <n>` line).
fn checkpoint_generation(text: &str) -> Option<usize> {
    text.lines()
        .find_map(|line| line.strip_prefix("gen "))
        .and_then(|v| v.parse().ok())
}

/// The optimization service (see module docs).
pub struct Server {
    config: ServerConfig,
    store: JobStore,
    queue: JobQueue,
    jobs: Mutex<HashMap<JobId, Arc<JobRuntime>>>,
    tenants: Mutex<HashMap<String, SharedCache<Evaluation>>>,
    shutdown: AtomicBool,
    registry: MetricsRegistry,
    metrics: ServerMetrics,
    running: AtomicUsize,
}

impl Server {
    /// Opens a server over `store_root`, rescanning any persisted jobs:
    /// terminal jobs are registered as-is, everything else is
    /// re-enqueued to resume from its last checkpoint.
    ///
    /// # Errors
    ///
    /// Propagates store I/O failures.
    pub fn open(
        store_root: impl Into<std::path::PathBuf>,
        config: ServerConfig,
    ) -> Result<Server, ServerError> {
        let store = JobStore::open(store_root)?;
        let registry = MetricsRegistry::new();
        let metrics = ServerMetrics::register(&registry);
        let server = Server {
            queue: JobQueue::new(config.queue_capacity),
            config,
            store,
            jobs: Mutex::new(HashMap::new()),
            tenants: Mutex::new(HashMap::new()),
            shutdown: AtomicBool::new(false),
            registry,
            metrics,
            running: AtomicUsize::new(0),
        };
        for id in server.store.scan()? {
            server.rescan_job(id)?;
        }
        Ok(server)
    }

    fn rescan_job(&self, id: JobId) -> Result<(), ServerError> {
        let spec = match self.store.read_spec(id) {
            Ok(spec) => spec,
            // A directory without a readable spec was never fully
            // submitted; leave it for manual inspection.
            Err(_) => return Ok(()),
        };
        let state = self.store.read_state(id);
        match state {
            Some(state) if state.status.is_terminal() => {
                let rt = Arc::new(JobRuntime::new(spec, state));
                // Subscribers read the finished stream from disk.
                rt.hub.finish_on_disk(self.store.events_path(id));
                self.jobs.lock().unwrap().insert(id, rt);
            }
            other => {
                // Queued, running, suspended, or a torn/missing state
                // file: the job is in flight and must be resumed. Trim
                // the event stream back to the checkpoint so the resumed
                // run appends without duplicating generations.
                let generations = self
                    .store
                    .read_checkpoint(id)
                    .as_deref()
                    .and_then(checkpoint_generation)
                    .unwrap_or(0);
                let rt = Arc::new(JobRuntime::new(
                    spec.clone(),
                    JobState {
                        status: JobStatus::Queued,
                        generations,
                        ..other.unwrap_or_else(JobState::queued)
                    },
                ));
                self.trim_events(id, generations, &rt)?;
                self.store.write_state(id, &rt.state.lock().unwrap())?;
                self.jobs.lock().unwrap().insert(id, rt);
                self.queue.requeue(id, spec.priority);
            }
        }
        Ok(())
    }

    /// Rewrites `events.jsonl` keeping only the prefix up to (and
    /// including) the `generations`-th `GenerationEnd`, dropping events
    /// a killed daemon emitted past its last persisted checkpoint, and
    /// replays the kept events into the hub and the flight recorder.
    fn trim_events(
        &self,
        id: JobId,
        generations: usize,
        rt: &JobRuntime,
    ) -> Result<(), ServerError> {
        let path = self.store.events_path(id);
        let text = match fs::read_to_string(&path) {
            Ok(text) => text,
            Err(_) => return Ok(()), // no stream yet
        };
        if generations == 0 {
            fs::remove_file(&path)?;
            return Ok(());
        }
        let replay = RunEvent::parse_jsonl_lossy(&text);
        let mut kept = Vec::new();
        let mut ends = 0usize;
        for event in replay.events {
            let is_end = event.kind() == EventKind::GenerationEnd;
            kept.push(event);
            if is_end {
                ends += 1;
                if ends == generations {
                    break;
                }
            }
        }
        let mut sink = JsonlSink::create(&path)?;
        let mut flight = rt.flight.lock().unwrap();
        for event in &kept {
            sink.record(event);
            flight.record(event);
        }
        rt.hub.publish(kept.iter().map(RunEvent::to_json).collect());
        sink.flush()?;
        Ok(())
    }

    /// The store this server persists into.
    pub fn store(&self) -> &JobStore {
        &self.store
    }

    /// Submits a job; returns its deterministic id.
    ///
    /// # Errors
    ///
    /// [`ServerError::InvalidSpec`] on validation failure,
    /// [`ServerError::DuplicateJob`] when the identical canonical spec
    /// was already submitted, [`ServerError::QueueFull`] /
    /// [`ServerError::ShuttingDown`] from the queue, and I/O errors
    /// from persistence.
    pub fn submit(&self, spec: JobSpec) -> Result<JobId, ServerError> {
        spec.validate()?;
        if self.shutdown.load(Ordering::SeqCst) {
            return Err(ServerError::ShuttingDown);
        }
        let id = spec.id();
        {
            let mut jobs = self.jobs.lock().unwrap();
            if jobs.contains_key(&id) {
                return Err(ServerError::DuplicateJob(id));
            }
            jobs.insert(
                id,
                Arc::new(JobRuntime::new(spec.clone(), JobState::queued())),
            );
        }
        // The job's directory is created outside the jobs lock, so no
        // worker or subscriber waits on this submit's disk writes. No
        // `state.job` yet: the rescan reads a missing one as queued.
        if let Err(e) = self.store.create_job(id, &spec) {
            self.jobs.lock().unwrap().remove(&id);
            return Err(e);
        }
        if let Err(e) = self.queue.push(id, spec.priority) {
            self.fail_job(id, &format!("not enqueued: {e}"));
            return Err(e);
        }
        self.metrics.jobs_submitted.inc();
        Ok(id)
    }

    fn runtime(&self, id: JobId) -> Result<Arc<JobRuntime>, ServerError> {
        self.jobs
            .lock()
            .unwrap()
            .get(&id)
            .cloned()
            .ok_or_else(|| ServerError::UnknownJob(id.to_string()))
    }

    fn view_of(&self, id: JobId, rt: &JobRuntime) -> JobView {
        let state = rt.state.lock().unwrap().clone();
        JobView {
            id,
            name: rt.spec.name.clone(),
            status: state.status,
            health: state.endpoint_health(),
            generations: state.generations,
            candidates: state.candidates,
            evaluations: state.evaluations,
            cache_hits: state.cache_hits,
            screened: state.screened,
            error: state.error,
        }
    }

    /// Snapshot of one job.
    ///
    /// # Errors
    ///
    /// [`ServerError::UnknownJob`] for ids never submitted here.
    pub fn status(&self, id: JobId) -> Result<JobView, ServerError> {
        let rt = self.runtime(id)?;
        Ok(self.view_of(id, &rt))
    }

    /// The per-job health endpoint.
    ///
    /// # Errors
    ///
    /// [`ServerError::UnknownJob`] for ids never submitted here.
    pub fn health(&self, id: JobId) -> Result<JobHealth, ServerError> {
        Ok(self.status(id)?.health)
    }

    /// Snapshots of every known job, sorted by id.
    pub fn list(&self) -> Vec<JobView> {
        let jobs = self.jobs.lock().unwrap();
        let mut views: Vec<JobView> = jobs.iter().map(|(id, rt)| self.view_of(*id, rt)).collect();
        views.sort_by_key(|v| v.id);
        views
    }

    /// Requests cancellation; takes effect at the job's next slice
    /// boundary (or dequeue).
    ///
    /// # Errors
    ///
    /// [`ServerError::UnknownJob`] for ids never submitted here.
    pub fn cancel(&self, id: JobId) -> Result<(), ServerError> {
        let rt = self.runtime(id)?;
        rt.cancel.store(true, Ordering::SeqCst);
        Ok(())
    }

    /// Polls a job's progress stream (see [`ProgressHub::poll`]).
    ///
    /// # Errors
    ///
    /// [`ServerError::UnknownJob`] for ids never submitted here.
    pub fn poll_progress(
        &self,
        id: JobId,
        cursor: u64,
        timeout: Duration,
    ) -> Result<crate::hub::HubPoll, ServerError> {
        Ok(self.runtime(id)?.hub.poll(cursor, timeout))
    }

    /// The process-wide metrics registry every job records into.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Pulls the scrape-time gauges (queue depth, running jobs, live
    /// jobs' hub drops) up to date; counters and histograms are
    /// maintained on the hot paths and need no refresh.
    fn refresh_gauges(&self) {
        #[allow(clippy::cast_precision_loss)]
        self.metrics.queue_depth.set(self.queue.len() as f64);
        #[allow(clippy::cast_precision_loss)]
        self.metrics
            .jobs_running
            .set(self.running.load(Ordering::SeqCst) as f64);
        let jobs = self.jobs.lock().unwrap();
        for (id, rt) in jobs.iter() {
            // Holding the state lock orders this against the job's
            // terminal transition, so a retired job's gauge never returns.
            let state = rt.state.lock().unwrap();
            if state.status.is_terminal() {
                continue;
            }
            let job = id.to_string();
            let tenant = rt.spec.tenant.as_deref().unwrap_or("none");
            #[allow(clippy::cast_precision_loss)]
            self.registry
                .gauge(
                    "dse_hub_dropped_lines",
                    &[("tenant", tenant), ("job", job.as_str())],
                )
                .set(rt.hub.dropped() as f64);
        }
    }

    /// A live snapshot in Prometheus text exposition format.
    pub fn metrics_text(&self) -> String {
        self.refresh_gauges();
        self.registry.render_text()
    }

    /// The same snapshot as one canonical JSON line.
    pub fn metrics_json(&self) -> String {
        self.refresh_gauges();
        self.registry.render_json()
    }

    /// A copy of one job's flight recorder (see [`FlightReport`]).
    ///
    /// # Errors
    ///
    /// [`ServerError::UnknownJob`] for ids never submitted here.
    pub fn debug_report(&self, id: JobId) -> Result<FlightReport, ServerError> {
        let rt = self.runtime(id)?;
        if let Some((lines, total)) = rt.hub.tail(FLIGHT_CAPACITY) {
            let flight = rt.flight.lock().unwrap();
            return Ok(FlightReport {
                dropped: total - lines.len() as u64,
                lines,
                hub_dropped: rt.hub.dropped(),
                stages: flight.stages,
                timed_generations: flight.timed_generations,
            });
        }
        // Terminal: the whole stream is on disk. Every stream is
        // published to the hub in full, so its ring would have dropped
        // exactly the lines beyond its capacity.
        let events = read_events(&self.store.events_path(id));
        let mut flight = FlightRecorder::default();
        for event in &events {
            flight.record(event);
        }
        let total = events.len() as u64;
        let lines: Vec<String> = events[events.len().saturating_sub(FLIGHT_CAPACITY)..]
            .iter()
            .map(RunEvent::to_json)
            .collect();
        Ok(FlightReport {
            dropped: total - lines.len() as u64,
            lines,
            hub_dropped: total.saturating_sub(HUB_CAPACITY as u64),
            stages: flight.stages,
            timed_generations: flight.timed_generations,
        })
    }

    /// Event lines held in memory for terminal jobs (none: their streams
    /// live on disk).
    #[cfg(test)]
    fn terminal_lines_retained(&self) -> usize {
        let jobs = self.jobs.lock().unwrap();
        jobs.values()
            .filter(|rt| rt.state.lock().unwrap().status.is_terminal())
            .map(|rt| rt.hub.retained())
            .sum()
    }

    /// Whether a shutdown was requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Requests shutdown: stops accepting work, wakes blocked workers,
    /// and makes running jobs suspend at their next slice boundary.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.queue.close();
    }

    /// Runs the worker pool until every queued job is terminal.
    ///
    /// # Errors
    ///
    /// Propagates worker-pool failures.
    pub fn run_until_idle(&self) -> Result<(), ServerError> {
        self.run_workers(PopMode::Drain, None).map(|_| ())
    }

    /// Runs the worker pool, stopping abruptly (like a `kill -9`) after
    /// `budget` generation slices have been *started* across all jobs.
    /// Returns `true` when the queue drained within the budget.
    ///
    /// In-flight jobs are left exactly as their last slice persisted
    /// them; reopening the store resumes them bit-identically.
    ///
    /// # Errors
    ///
    /// Propagates worker-pool failures.
    pub fn run_slices_at_most(&self, budget: usize) -> Result<bool, ServerError> {
        self.run_workers(PopMode::Drain, Some(budget))
    }

    fn run_workers(&self, mode: PopMode, budget: Option<usize>) -> Result<bool, ServerError> {
        let spent = AtomicUsize::new(0);
        let halt = AtomicBool::new(false);
        let pool = engine::PoolMetrics::register(&self.registry, &[("stage", "serve")]);
        engine::pool::try_map_indexed_metered(
            self.config.workers,
            self.config.workers,
            Some(&pool),
            |_w| {
                while let Some(id) = self.queue.pop(mode, &halt) {
                    self.run_one(id, budget, &spent, &halt);
                }
                Ok::<(), ServerError>(())
            },
        )?;
        Ok(!halt.load(Ordering::SeqCst))
    }

    /// Serves the line protocol on `listener` until a client sends
    /// `shutdown` (or [`Server::request_shutdown`] is called).
    ///
    /// # Errors
    ///
    /// Propagates listener configuration failures.
    pub fn serve(&self, listener: TcpListener) -> Result<(), ServerError> {
        listener.set_nonblocking(true)?;
        std::thread::scope(|scope| -> Result<(), ServerError> {
            let workers = scope.spawn(|| self.run_workers(PopMode::Wait, None));
            loop {
                if self.is_shutting_down() {
                    break;
                }
                match listener.accept() {
                    Ok((stream, _addr)) => {
                        scope.spawn(move || crate::protocol::handle_connection(self, stream));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(25));
                    }
                    Err(e) => return Err(ServerError::Io(e)),
                }
            }
            self.queue.close();
            workers.join().expect("worker pool panicked")?;
            Ok(())
        })
    }

    fn tenant_cache(&self, tenant: &str) -> SharedCache<Evaluation> {
        self.tenants
            .lock()
            .unwrap()
            .entry(tenant.to_string())
            .or_insert_with(|| SharedCache::new(self.config.cache.clone()))
            .clone()
    }

    fn update_state(&self, id: JobId, rt: &JobRuntime, f: impl FnOnce(&mut JobState)) {
        let mut state = rt.state.lock().unwrap();
        f(&mut state);
        // Persistence is best-effort here: a full disk must not take the
        // whole pool down, and the next successful write supersedes.
        let _ = self.store.write_state(id, &state);
    }

    /// Moves a job between in-flight statuses in memory only. The rescan
    /// re-enqueues an in-flight job from its checkpoint whatever status
    /// `state.job` holds, so persisting these transitions would record
    /// nothing and cost a file replacement per slice.
    fn set_live_status(rt: &JobRuntime, status: JobStatus) {
        rt.state.lock().unwrap().status = status;
    }

    /// Records a slice boundary whose checkpoint is already on disk. The
    /// rescan reads an in-flight job's generation from that checkpoint,
    /// so `state.job` is rewritten only when the health it keeps for the
    /// rescan changes.
    fn suspend_state(&self, id: JobId, rt: &JobRuntime, generations: usize, health: JobHealth) {
        let mut state = rt.state.lock().unwrap();
        let persist = state.health != health;
        state.status = JobStatus::Suspended;
        state.generations = generations;
        state.health = health;
        if persist {
            // Best-effort, as in `update_state`.
            let _ = self.store.write_state(id, &state);
        }
    }

    fn fail_job(&self, id: JobId, message: &str) {
        if let Ok(rt) = self.runtime(id) {
            self.update_state(id, &rt, |s| {
                s.status = JobStatus::Failed;
                s.error = Some(message.to_string());
            });
            self.finish_job(id, &rt);
            self.metrics.jobs_failed.inc();
        }
    }

    /// Releases a job's in-memory footprint once its state is terminal
    /// and its `events.jsonl` flushed: the stream moves to disk, the
    /// watchdogs go, and its `job`-labeled series fold into their
    /// `{tenant, arm}` totals.
    fn finish_job(&self, id: JobId, rt: &JobRuntime) {
        rt.hub.finish_on_disk(self.store.events_path(id));
        *rt.watch.lock().unwrap() = None;
        self.registry.retire("job", &id.to_string());
    }

    /// Executes one popped job until it completes, fails, is cancelled,
    /// yields to a contended queue, or the slice budget kills the pool.
    /// Always balances the pop with [`JobQueue::task_done`].
    fn run_one(&self, id: JobId, budget: Option<usize>, spent: &AtomicUsize, halt: &AtomicBool) {
        let rt = match self.runtime(id) {
            Ok(rt) => rt,
            Err(_) => {
                self.queue.task_done();
                return;
            }
        };
        if rt.cancel.load(Ordering::SeqCst) {
            self.update_state(id, &rt, |s| s.status = JobStatus::Cancelled);
            self.finish_job(id, &rt);
            self.queue.task_done();
            return;
        }
        let spec = rt.spec.clone();
        let cache = spec.tenant.as_deref().map(|t| self.tenant_cache(t));
        // Per-job labeled series in the shared registry. Registration is
        // idempotent, so a requeued job keeps accumulating into the same
        // handles.
        let job_label = id.to_string();
        let labels = [
            ("tenant", spec.tenant.as_deref().unwrap_or("none")),
            ("job", job_label.as_str()),
            ("arm", spec.algo.arm()),
        ];
        let engine_metrics = EngineMetrics::register(&self.registry, &labels);
        let nobj = spec.problem.build().num_objectives();
        let mut run_metrics = RegistrySink::register(&self.registry, &labels).with_hypervolume(
            &self.registry,
            &labels,
            vec![STALL_REF; nobj],
        );
        let opt = match spec.build_optimizer(cache, Some(engine_metrics)) {
            Ok(opt) => opt,
            Err(e) => {
                self.fail_job(id, &e.to_string());
                self.queue.task_done();
                return;
            }
        };
        self.running.fetch_add(1, Ordering::SeqCst);
        let _running = RunningGuard(&self.running);
        // Watchdogs persist across requeues in memory; after a daemon
        // restart they are rebuilt by replaying the (trimmed) stream.
        let mut watch = rt.watch.lock().unwrap().take().unwrap_or_else(|| {
            let mut fresh = WatchdogSet::build(&spec);
            fresh.replay(&read_events(&self.store.events_path(id)));
            fresh
        });
        let mut jsonl = match JsonlSink::append(self.store.events_path(id)) {
            Ok(sink) => sink,
            Err(e) => {
                self.fail_job(id, &format!("cannot open event stream: {e}"));
                self.queue.task_done();
                return;
            }
        };
        Self::set_live_status(&rt, JobStatus::Running);
        let quantum = if spec.slice == 0 {
            usize::MAX
        } else {
            spec.slice
        };
        let mut checkpoint_text = self.store.read_checkpoint(id);
        let mut done_gens = rt.state.lock().unwrap().generations;
        loop {
            if let Some(limit) = budget {
                if spent.fetch_add(1, Ordering::SeqCst) >= limit {
                    // Simulated kill: stop the pool without persisting
                    // anything beyond the last slice boundary.
                    halt.store(true, Ordering::SeqCst);
                    self.queue.interrupt();
                    *rt.watch.lock().unwrap() = Some(watch);
                    self.queue.task_done();
                    return;
                }
            }
            let target = done_gens.saturating_add(quantum);
            let mut sink = SegmentSink {
                jsonl: &mut jsonl,
                hub: &rt.hub,
                pending: Vec::new(),
                watch: &mut watch,
                flight: &rt.flight,
                run_metrics: &mut run_metrics,
            };
            let slice_start = Instant::now();
            let status = match &checkpoint_text {
                Some(text) => opt.resume_until_dyn_with(text, target, &mut sink),
                None => opt.run_until_dyn_with(spec.seed, target, &mut sink),
            };
            sink.publish_pending();
            self.metrics.slices.observe_duration(slice_start.elapsed());
            match status {
                Err(e) => {
                    let _ = jsonl.flush();
                    let health = watch.health();
                    self.update_state(id, &rt, |s| {
                        s.status = JobStatus::Failed;
                        s.health = health;
                        s.error = Some(e.to_string());
                    });
                    self.finish_job(id, &rt);
                    self.queue.task_done();
                    return;
                }
                Ok(DynRunStatus::Complete(outcome)) => {
                    let _ = jsonl.flush();
                    self.complete_job(id, &rt, &spec, &outcome, &watch);
                    self.queue.task_done();
                    return;
                }
                Ok(DynRunStatus::Suspended {
                    checkpoint,
                    generations,
                }) => {
                    let _ = jsonl.flush();
                    if let Err(e) = self.store.write_checkpoint(id, &checkpoint) {
                        self.fail_job(id, &format!("cannot persist checkpoint: {e}"));
                        self.queue.task_done();
                        return;
                    }
                    done_gens = generations;
                    self.suspend_state(id, &rt, generations, watch.health());
                    if rt.cancel.load(Ordering::SeqCst) {
                        self.update_state(id, &rt, |s| s.status = JobStatus::Cancelled);
                        self.finish_job(id, &rt);
                        self.queue.task_done();
                        return;
                    }
                    if self.is_shutting_down() {
                        // Graceful: leave suspended; resumes next boot.
                        *rt.watch.lock().unwrap() = Some(watch);
                        self.queue.task_done();
                        return;
                    }
                    if self.queue.contended() {
                        // Cooperative preemption: yield the worker.
                        self.metrics.preemptions.inc();
                        Self::set_live_status(&rt, JobStatus::Queued);
                        *rt.watch.lock().unwrap() = Some(watch);
                        self.queue.requeue(id, spec.priority);
                        self.queue.task_done();
                        return;
                    }
                    checkpoint_text = Some(checkpoint);
                }
            }
        }
    }

    fn complete_job(
        &self,
        id: JobId,
        rt: &JobRuntime,
        spec: &JobSpec,
        outcome: &RunOutcome,
        watch: &WatchdogSet,
    ) {
        let result = CellResult::from_outcome(spec.algo.token(), spec.seed, outcome);
        if let Err(e) = self.store.write_outcome(id, &result) {
            self.fail_job(id, &format!("cannot persist outcome: {e}"));
            return;
        }
        let health = watch.health();
        self.update_state(id, rt, |s| {
            s.status = JobStatus::Done;
            s.generations = outcome.generations;
            s.candidates = outcome.stats.candidates;
            s.evaluations = outcome.stats.evaluations;
            s.cache_hits = outcome.stats.cache_hits;
            s.screened = outcome.stats.screened;
            s.health = health;
        });
        self.finish_job(id, rt);
        self.metrics.jobs_completed.inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{AlgoSpec, ProblemSpec};

    fn tmp_root(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("dse-server-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn quick_spec(name: &str) -> JobSpec {
        JobSpec::new(
            name,
            ProblemSpec::Schaffer,
            AlgoSpec::Sacga {
                pop: 16,
                gens: 6,
                parts: 4,
            },
            42,
        )
    }

    #[test]
    fn submit_run_and_report() {
        let root = tmp_root("basic");
        let server = Server::open(&root, ServerConfig::new()).unwrap();
        let id = server.submit(quick_spec("basic")).unwrap();
        assert!(matches!(
            server.submit(quick_spec("basic")),
            Err(ServerError::DuplicateJob(_))
        ));
        server.run_until_idle().unwrap();
        let view = server.status(id).unwrap();
        assert_eq!(view.status, JobStatus::Done);
        assert_eq!(view.health, JobHealth::Done);
        assert_eq!(view.generations, 6);
        assert!(view.candidates > 0);
        assert_eq!(
            view.candidates,
            view.evaluations + view.cache_hits + view.screened
        );
        assert!(server.store().read_outcome(id).is_some());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn cancelled_before_running_never_executes() {
        let root = tmp_root("cancel");
        let server = Server::open(&root, ServerConfig::new()).unwrap();
        let id = server.submit(quick_spec("cancel")).unwrap();
        server.cancel(id).unwrap();
        server.run_until_idle().unwrap();
        let view = server.status(id).unwrap();
        assert_eq!(view.status, JobStatus::Cancelled);
        assert_eq!(view.health, JobHealth::Failed);
        assert!(server.store().read_outcome(id).is_none());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn streaming_sees_generation_events() {
        let root = tmp_root("stream");
        let server = Server::open(&root, ServerConfig::new()).unwrap();
        let id = server.submit(quick_spec("stream")).unwrap();
        server.run_until_idle().unwrap();
        let poll = server.poll_progress(id, 0, Duration::ZERO).unwrap();
        assert!(poll.done);
        let replay = RunEvent::parse_jsonl_lossy(&poll.lines.join("\n"));
        let ends = replay
            .events
            .iter()
            .filter(|e| e.kind() == EventKind::GenerationEnd)
            .count();
        assert_eq!(ends, 6);
        let _ = fs::remove_dir_all(&root);
    }

    /// The value of the one sample named exactly `series` in `text`.
    fn sample(text: &str, series: &str) -> u64 {
        text.lines()
            .find_map(|l| l.strip_prefix(series)?.strip_prefix(' '))
            .unwrap_or_else(|| panic!("{series} missing from scrape:\n{text}"))
            .parse()
            .unwrap()
    }

    #[test]
    fn scrape_balances_and_is_monotone() {
        let root = tmp_root("scrape");
        let server = Server::open(&root, ServerConfig::new()).unwrap();
        let spec = quick_spec("scrape").tenant("acme");
        let id = server.submit(spec).unwrap();
        // A live job's hub gauge carries its labels...
        let live = server.metrics_text();
        assert!(live.contains(&format!(
            "dse_hub_dropped_lines{{job=\"{id}\",tenant=\"acme\"}} 0"
        )));
        server.run_until_idle().unwrap();
        let text = server.metrics_text();
        // ...and a finished job's series are folded into {tenant, arm}.
        assert!(!text.contains(&format!("job=\"{id}\"")), "{text}");
        assert!(!text.contains("dse_hub_dropped_lines"), "{text}");
        assert!(!text.contains("dse_run_hypervolume"), "gauges are dropped");
        let labels = "{arm=\"sacga\",tenant=\"acme\"}";
        let folded = |name: &str| sample(&text, &format!("{name}{labels}"));
        let candidates = folded("dse_engine_candidates_total");
        let evaluations = folded("dse_engine_evaluations_total");
        let cache_hits = folded("dse_engine_cache_hits_total");
        let screened = folded("dse_engine_screened_total");
        assert!(candidates > 0);
        assert_eq!(candidates, evaluations + cache_hits + screened);
        // The job's own counts stay in its ledger; as the tenant's only
        // job it equals the folded totals.
        let view = server.status(id).unwrap();
        assert_eq!(
            view.candidates,
            view.evaluations + view.cache_hits + view.screened
        );
        assert_eq!(
            (candidates, evaluations, cache_hits, screened),
            (
                view.candidates,
                view.evaluations,
                view.cache_hits,
                view.screened
            )
        );
        assert_eq!(view.generations, 6);
        assert_eq!(folded("dse_run_generations_total"), 6);
        assert_eq!(folded("dse_engine_eval_latency_seconds_count"), evaluations);
        assert!(text.contains("dse_server_jobs_submitted_total 1"));
        assert!(text.contains("dse_server_jobs_completed_total 1"));
        // A second scrape with no new work is byte-identical (counters
        // monotone, gauges unchanged).
        assert_eq!(server.metrics_text(), text);
        // JSON snapshot is one line over the same series.
        let json = server.metrics_json();
        assert!(json.starts_with("{\"metrics\":["));
        assert!(!json.contains('\n'));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn finished_jobs_keep_no_event_lines_and_no_job_series() {
        let root = tmp_root("resident");
        let server = Server::open(&root, ServerConfig::new()).unwrap();
        let tenants = ["acme", "beta"];
        let mut submitted = 0;
        let mut run_batch = |n: usize| {
            for _ in 0..n {
                let spec = quick_spec(&format!("r{submitted}"))
                    .tenant(tenants[submitted % tenants.len()])
                    .slice(2);
                server.submit(spec).unwrap();
                submitted += 1;
            }
            server.run_until_idle().unwrap();
        };
        let series = |text: &str| text.lines().filter(|l| !l.starts_with('#')).count();
        run_batch(10);
        let after_10 = server.metrics_text();
        assert_eq!(server.terminal_lines_retained(), 0);
        run_batch(10);
        let after_20 = server.metrics_text();
        assert_eq!(server.terminal_lines_retained(), 0);
        assert_eq!(series(&after_10), series(&after_20));
        assert!(!after_20.contains("job="), "{after_20}");
        for tenant in tenants {
            let labels = format!("{{arm=\"sacga\",tenant=\"{tenant}\"}}");
            let folded = |name: &str| sample(&after_20, &format!("{name}{labels}"));
            let candidates = folded("dse_engine_candidates_total");
            assert!(candidates > 0);
            assert_eq!(
                candidates,
                folded("dse_engine_evaluations_total")
                    + folded("dse_engine_cache_hits_total")
                    + folded("dse_engine_screened_total")
            );
            assert_eq!(folded("dse_run_generations_total"), 10 * 6);
        }
        // Streams of finished jobs still replay in full, from disk.
        for view in server.list() {
            let poll = server.poll_progress(view.id, 0, Duration::ZERO).unwrap();
            assert!(poll.done);
            let on_disk = fs::read_to_string(server.store().events_path(view.id)).unwrap();
            assert_eq!(poll.lines, on_disk.lines().collect::<Vec<_>>());
        }
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn flight_recorder_keeps_the_event_tail() {
        let root = tmp_root("flight");
        let server = Server::open(&root, ServerConfig::new()).unwrap();
        let id = server.submit(quick_spec("flight")).unwrap();
        server.run_until_idle().unwrap();
        let report = server.debug_report(id).unwrap();
        assert!(!report.lines.is_empty());
        assert!(report.lines.len() <= FLIGHT_CAPACITY);
        assert_eq!(report.dropped, 0);
        assert_eq!(report.hub_dropped, 0);
        // Every retained line is a replayable event.
        let replay = RunEvent::parse_jsonl_lossy(&report.lines.join("\n"));
        assert_eq!(replay.events.len(), report.lines.len());
        assert!(server
            .debug_report(JobId::parse("00000000deadbeef").unwrap())
            .is_err());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn unknown_job_is_an_error() {
        let root = tmp_root("unknown");
        let server = Server::open(&root, ServerConfig::new()).unwrap();
        let id = JobId::parse("00000000deadbeef").unwrap();
        assert!(matches!(server.status(id), Err(ServerError::UnknownJob(_))));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn in_flight_transitions_stay_in_memory() {
        let root = tmp_root("inflight");
        let server = Server::open(&root, ServerConfig::new()).unwrap();
        let id = server.submit(quick_spec("inflight").slice(2)).unwrap();
        assert!(server.store().read_state(id).is_none());
        // Two slices persist two checkpoints, then the budget kills the
        // pool; a healthy job's state never changed in a way a restart
        // needs, so it was never written.
        assert!(!server.run_slices_at_most(2).unwrap());
        assert_eq!(server.health(id).unwrap(), JobHealth::Healthy);
        assert!(server.store().read_state(id).is_none());
        let checkpoint = server.store().read_checkpoint(id).unwrap();
        let live = server.status(id).unwrap();
        assert_eq!(live.generations, 4);
        assert_eq!(checkpoint_generation(&checkpoint), Some(4));
        drop(server);

        let server = Server::open(&root, ServerConfig::new()).unwrap();
        let view = server.status(id).unwrap();
        assert_eq!(view.status, JobStatus::Queued);
        assert_eq!(view.generations, live.generations);
        server.run_until_idle().unwrap();
        let state = server.store().read_state(id).unwrap();
        assert_eq!(state.status, JobStatus::Done);
        assert_eq!(state.generations, 6);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn failed_submit_leaves_no_job_behind() {
        let root = tmp_root("submitfail");
        let server = Server::open(&root, ServerConfig::new()).unwrap();
        let spec = quick_spec("submitfail");
        let id = spec.id();
        // A file where the job's directory belongs makes the write fail.
        let blocker = server.store().job_dir(id);
        fs::write(&blocker, "not a directory").unwrap();
        assert!(matches!(
            server.submit(spec.clone()),
            Err(ServerError::Io(_))
        ));
        assert!(matches!(server.status(id), Err(ServerError::UnknownJob(_))));
        fs::remove_file(&blocker).unwrap();
        assert_eq!(server.submit(spec).unwrap(), id);
        server.run_until_idle().unwrap();
        assert_eq!(server.status(id).unwrap().status, JobStatus::Done);
        let _ = fs::remove_dir_all(&root);
    }
}
