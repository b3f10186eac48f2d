//! The job server: admission-controlled worker pool, kill-and-resume
//! execution, quarantine ladder, and the result cache.

use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use louvain_comm::{FaultPlan, RunConfig};
use louvain_dist::{
    build_run_report, config_fingerprint, run_distributed_resilient_source, CheckpointOptions,
    GraphSource, ReportMeta, ResilOptions, CANCELLED_AT_PHASE,
};
use louvain_obs::{
    run_label, Json, MetricsRegistry, MetricsSnapshot, OpKind, OpsPlane, ProgressSink, RunArtifact,
    RunEntry, TelemetryRow, DEFAULT_FLIGHT_CAPACITY,
};
use louvain_resil::CheckpointStore;
use louvain_store::{sniff_kind, verify, FileKind};

use crate::cache::{graph_key, ArtifactCache, CachedResult, JobKey};
use crate::job::JobSpec;

/// Server tunables.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads (the in-flight cap). `0` is a valid test mode:
    /// jobs queue but never start, so admission behaviour is
    /// deterministic.
    pub workers: usize,
    /// Bounded admission queue depth; submissions past it are shed with
    /// [`SubmitError::QueueFull`].
    pub queue_depth: usize,
    /// Result-cache capacity (jobs).
    pub cache_capacity: usize,
    /// Root under which each job gets its own checkpoint directory.
    pub checkpoint_root: PathBuf,
    /// Failed attempts (across resubmissions) after which a job key is
    /// quarantined.
    pub quarantine_after: usize,
    /// Default per-job crash-recovery budget (a submission can lower or
    /// raise its own).
    pub max_crash_recoveries: usize,
    /// Default per-job hang-recovery budget.
    pub max_hang_recoveries: usize,
    /// Log job lifecycle lines to stderr.
    pub verbose: bool,
    /// Append every operational event as one JSON line to this file
    /// (rotated to `<path>.1` at `event_log_max_bytes`).
    pub event_log: Option<PathBuf>,
    /// Size bound of the event log before rotation.
    pub event_log_max_bytes: u64,
    /// Where flight-recorder dumps land; defaults to
    /// `<checkpoint_root>/flight`.
    pub flight_dir: Option<PathBuf>,
    /// Events kept in the in-memory flight ring.
    pub flight_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            queue_depth: 8,
            cache_capacity: 64,
            checkpoint_root: std::env::temp_dir().join(format!("louvaind-{}", std::process::id())),
            quarantine_after: 3,
            max_crash_recoveries: 2,
            max_hang_recoveries: 2,
            verbose: false,
            event_log: None,
            event_log_max_bytes: 1 << 20,
            flight_dir: None,
            flight_capacity: DEFAULT_FLIGHT_CAPACITY,
        }
    }
}

impl ServeConfig {
    /// Effective flight-dump directory.
    pub fn flight_dir(&self) -> PathBuf {
        self.flight_dir
            .clone()
            .unwrap_or_else(|| self.checkpoint_root.join("flight"))
    }
}

/// Why a submission was not admitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is full — load was shed, try again later.
    QueueFull,
    /// The server is draining and accepts no new work.
    ShuttingDown,
    /// The spec itself is bad (unparsable fault plan, …).
    Invalid(String),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull => write!(f, "queue_full"),
            SubmitError::ShuttingDown => write!(f, "shutting_down"),
            SubmitError::Invalid(msg) => write!(f, "invalid: {msg}"),
        }
    }
}

/// Lifecycle of one submitted job.
#[derive(Debug, Clone)]
pub enum JobStatus {
    Queued,
    Running,
    /// Finished with a result (fresh run or cache hit).
    Done {
        cached: bool,
        resumed_from_phase: Option<u64>,
        crash_recoveries: u64,
        hang_recoveries: u64,
        wall_ms: u64,
        result: Arc<CachedResult>,
    },
    /// The run failed (budget exhausted, bad graph file, …) but the job
    /// key is still below the quarantine ladder — a resubmission will
    /// try again, resuming from any checkpoint the failed run left.
    Failed {
        error: String,
        attempts: usize,
    },
    /// The poisoned-job ladder tripped: this key failed
    /// `quarantine_after` times and is refused without running until
    /// the server restarts. The daemon itself stays up.
    Quarantined {
        error: String,
        attempts: usize,
    },
    /// Cancelled: either shed from the queue at drain (`at_phase:
    /// None`) or stopped cooperatively at a phase boundary
    /// (`at_phase: Some(k)`, with the checkpoint for phases `0..k`
    /// durable for a later resume).
    Cancelled {
        at_phase: Option<u64>,
    },
}

impl JobStatus {
    pub fn is_terminal(&self) -> bool {
        !matches!(self, JobStatus::Queued | JobStatus::Running)
    }
}

/// Live per-job progress: merged telemetry rows collected as the run
/// executes (late watchers replay them), the current position, and the
/// channels of attached watchers.
#[derive(Default)]
struct JobProgress {
    /// Rows in arrival order; sorted by key when the artifact is built.
    rows: Vec<TelemetryRow>,
    /// `(phase, iteration, modularity)` of the newest row.
    current: Option<(u64, u64, f64)>,
    watchers: Vec<std::sync::mpsc::Sender<TelemetryRow>>,
}

struct JobRecord {
    spec: JobSpec,
    status: JobStatus,
    cancel: Arc<AtomicBool>,
    submitted: Instant,
    progress: Arc<Mutex<JobProgress>>,
}

/// Detailed status for the `status` verb: lifecycle plus where the job
/// sits (queue position) or is (current phase/iteration).
#[derive(Debug, Clone)]
pub struct StatusDetail {
    pub status: JobStatus,
    /// 0-based position in the admission queue, for queued jobs.
    pub queue_position: Option<usize>,
    /// `(phase, iteration, modularity)` of the newest progress row, for
    /// jobs that have produced one.
    pub current: Option<(u64, u64, f64)>,
}

/// The per-job [`ProgressSink`] handed to the resilient runner: stores
/// each merged row for replay, forwards it to live watchers, and emits
/// a `phase_completed` event when the row stream crosses a phase
/// boundary.
struct JobProgressSink {
    job_id: String,
    progress: Arc<Mutex<JobProgress>>,
    ops: Arc<OpsPlane>,
    /// Newest phase seen, plus that phase's latest (iteration count,
    /// modularity) for the `phase_completed` payload.
    last_phase: Mutex<Option<(u64, u64, f64)>>,
}

impl ProgressSink for JobProgressSink {
    fn on_row(&self, row: &TelemetryRow) {
        {
            let mut p = self.progress.lock().unwrap();
            p.rows.push(row.clone());
            p.current = Some((row.phase, row.iteration, row.modularity));
            p.watchers.retain(|w| w.send(row.clone()).is_ok());
        }
        let mut last = self.last_phase.lock().unwrap();
        match &mut *last {
            Some((phase, iterations, modularity)) if *phase == row.phase => {
                *iterations = (*iterations).max(row.iteration + 1);
                *modularity = row.modularity;
            }
            Some((phase, iterations, modularity)) if row.phase > *phase => {
                self.ops.emit(
                    OpKind::PhaseCompleted,
                    Some(&self.job_id),
                    vec![
                        ("phase", Json::Num(*phase as f64)),
                        ("iterations", Json::Num(*iterations as f64)),
                        ("modularity", Json::Num(*modularity)),
                    ],
                );
                *last = Some((row.phase, row.iteration + 1, row.modularity));
            }
            // End-of-run flush can deliver a stale phase's partial row
            // out of order; it never un-completes a phase.
            Some(_) => {}
            None => *last = Some((row.phase, row.iteration + 1, row.modularity)),
        }
    }
}

struct State {
    queue: VecDeque<u64>,
    jobs: HashMap<u64, JobRecord>,
    /// Latest submission seq per client job id.
    by_id: HashMap<String, u64>,
    cache: ArtifactCache,
    /// Failed-attempt count per job key (the quarantine ladder).
    poisoned: HashMap<JobKey, usize>,
    running: usize,
    next_seq: u64,
    accepting: bool,
    stop_workers: bool,
}

struct Inner {
    cfg: ServeConfig,
    state: Mutex<State>,
    /// Signalled when the queue gains work or workers must stop.
    work: Condvar,
    /// Signalled on any status change (for `wait`).
    change: Condvar,
    metrics: MetricsRegistry,
    ops: Arc<OpsPlane>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

/// Handle to a running job server. Cheap to clone; the last drop does
/// not stop the workers — call [`Server::drain`] for an orderly stop.
#[derive(Clone)]
pub struct Server {
    inner: Arc<Inner>,
}

/// Make every thread of the process allocate from one malloc arena.
///
/// A job runs on rank threads that live for one detection. glibc gives
/// each new thread an arena of its own and keeps the heap an exited
/// thread freed (up to 64 MiB, below its trim threshold) resident until
/// some later thread happens to inherit that arena, so the daemon's
/// footprint depends on which thread of the next job starts first:
/// the same 37 jobs peak at 254 or at 305 MiB. With one arena the heap
/// a finished job freed is what the next job allocates from.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn share_one_malloc_arena() {
    const M_ARENA_MAX: i32 = -8;
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    // SAFETY: `mallopt` is thread-safe and `M_ARENA_MAX` only bounds
    // arenas created from now on; a refusal (return 0) changes nothing.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn share_one_malloc_arena() {}

impl Server {
    /// Start the worker pool.
    pub fn start(cfg: ServeConfig) -> Server {
        share_one_malloc_arena();
        let workers = cfg.workers;
        let ops = match &cfg.event_log {
            Some(path) => OpsPlane::with_log(cfg.flight_capacity, path, cfg.event_log_max_bytes)
                .unwrap_or_else(|e| {
                    eprintln!(
                        "louvaind: cannot open event log {}: {e}; continuing without it",
                        path.display()
                    );
                    OpsPlane::new(cfg.flight_capacity)
                }),
            None => OpsPlane::new(cfg.flight_capacity),
        };
        let server = Server {
            inner: Arc::new(Inner {
                cfg,
                state: Mutex::new(State {
                    queue: VecDeque::new(),
                    jobs: HashMap::new(),
                    by_id: HashMap::new(),
                    cache: ArtifactCache::new(0),
                    poisoned: HashMap::new(),
                    running: 0,
                    next_seq: 0,
                    accepting: true,
                    stop_workers: false,
                }),
                work: Condvar::new(),
                change: Condvar::new(),
                metrics: MetricsRegistry::new(),
                ops: Arc::new(ops),
                handles: Mutex::new(Vec::new()),
            }),
        };
        {
            let mut st = server.inner.state.lock().unwrap();
            st.cache = ArtifactCache::new(server.inner.cfg.cache_capacity);
            // Initialise the gauges so a scrape of an idle daemon
            // already exposes them at zero.
            server.sync_queue_depth(&st);
            server.inner.metrics.gauge_set("serve.jobs_running", 0.0);
        }
        let mut handles = server.inner.handles.lock().unwrap();
        for w in 0..workers {
            let s = server.clone();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("louvaind-worker-{w}"))
                    .spawn(move || s.worker_loop())
                    .expect("spawn worker"),
            );
        }
        drop(handles);
        server
    }

    pub fn config(&self) -> &ServeConfig {
        &self.inner.cfg
    }

    fn log(&self, msg: &str) {
        if self.inner.cfg.verbose {
            eprintln!("louvaind: {msg}");
        }
    }

    /// The one place the `serve.queue_depth` gauge is written: always
    /// under the state lock, always from the queue's actual length, so
    /// the gauge can never go negative or disagree with the queue —
    /// including in the drain-while-shedding race, where drain and a
    /// concurrent cancel both recompute from the now-empty queue.
    fn sync_queue_depth(&self, st: &State) {
        let depth = st.queue.len();
        debug_assert!(
            depth <= self.inner.cfg.queue_depth,
            "queue depth {depth} exceeds configured bound {}",
            self.inner.cfg.queue_depth
        );
        self.inner
            .metrics
            .gauge_set("serve.queue_depth", depth as f64);
    }

    /// Admission control: accept into the bounded queue or shed.
    /// Never blocks on a full pool — that is the point.
    pub fn submit(&self, spec: JobSpec) -> Result<u64, SubmitError> {
        let checked = spec.validate().and_then(|()| match &spec.fault_plan {
            Some(plan) => FaultPlan::parse(plan).map(drop),
            None => Ok(()),
        });
        if let Err(e) = checked {
            self.inner.ops.emit(
                OpKind::JobShed,
                Some(&spec.job_id),
                vec![("reason", Json::str("invalid"))],
            );
            return Err(SubmitError::Invalid(e));
        }
        let mut st = self.inner.state.lock().unwrap();
        if !st.accepting {
            self.inner.ops.emit(
                OpKind::JobShed,
                Some(&spec.job_id),
                vec![("reason", Json::str("shutting_down"))],
            );
            return Err(SubmitError::ShuttingDown);
        }
        if st.queue.len() >= self.inner.cfg.queue_depth {
            self.inner.metrics.counter_add("serve.jobs_rejected", 1);
            self.inner.ops.emit(
                OpKind::JobShed,
                Some(&spec.job_id),
                vec![
                    ("reason", Json::str("queue_full")),
                    ("queue_depth", Json::Num(st.queue.len() as f64)),
                ],
            );
            return Err(SubmitError::QueueFull);
        }
        let seq = st.next_seq;
        st.next_seq += 1;
        st.by_id.insert(spec.job_id.clone(), seq);
        let job_id = spec.job_id.clone();
        st.jobs.insert(
            seq,
            JobRecord {
                spec,
                status: JobStatus::Queued,
                cancel: Arc::new(AtomicBool::new(false)),
                submitted: Instant::now(),
                progress: Arc::new(Mutex::new(JobProgress::default())),
            },
        );
        st.queue.push_back(seq);
        self.inner.metrics.counter_add("serve.jobs_accepted", 1);
        self.sync_queue_depth(&st);
        let depth = st.queue.len();
        drop(st);
        self.inner.ops.emit(
            OpKind::JobAccepted,
            Some(&job_id),
            vec![
                ("seq", Json::Num(seq as f64)),
                ("queue_depth", Json::Num(depth as f64)),
            ],
        );
        self.log(&format!("accepted job {job_id} as #{seq}"));
        self.inner.work.notify_one();
        Ok(seq)
    }

    pub fn status(&self, seq: u64) -> Option<JobStatus> {
        let st = self.inner.state.lock().unwrap();
        st.jobs.get(&seq).map(|r| r.status.clone())
    }

    /// Lifecycle plus queue position / current phase for the `status`
    /// verb.
    pub fn status_detail(&self, seq: u64) -> Option<StatusDetail> {
        let st = self.inner.state.lock().unwrap();
        let r = st.jobs.get(&seq)?;
        let queue_position = st.queue.iter().position(|&q| q == seq);
        let current = r.progress.lock().unwrap().current;
        Some(StatusDetail {
            status: r.status.clone(),
            queue_position,
            current,
        })
    }

    /// Latest submission seq for a client job id.
    pub fn seq_of(&self, job_id: &str) -> Option<u64> {
        self.inner.state.lock().unwrap().by_id.get(job_id).copied()
    }

    /// Subscribe to a job's progress stream: returns the rows emitted
    /// so far (replay, in arrival order) plus a receiver for every
    /// subsequent row. The sender side lives in the job record, so the
    /// receiver disconnects only when the server drops the job — poll
    /// [`Server::status`] for terminal states rather than blocking
    /// forever on a finished job.
    pub fn watch(
        &self,
        seq: u64,
    ) -> Option<(Vec<TelemetryRow>, std::sync::mpsc::Receiver<TelemetryRow>)> {
        let st = self.inner.state.lock().unwrap();
        let r = st.jobs.get(&seq)?;
        let mut p = r.progress.lock().unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        p.watchers.push(tx);
        Some((p.rows.clone(), rx))
    }

    /// The daemon's operational-event hub (event log, flight ring).
    pub fn ops(&self) -> Arc<OpsPlane> {
        Arc::clone(&self.inner.ops)
    }

    /// Dump the flight recorder (ring + a fresh metrics snapshot) to
    /// the configured flight directory.
    pub fn dump_flight(&self, reason: &str) -> std::io::Result<PathBuf> {
        self.inner.ops.dump_flight(
            &self.inner.cfg.flight_dir(),
            reason,
            &self.metrics_snapshot(),
        )
    }

    /// Block until the job reaches a terminal status.
    pub fn wait(&self, seq: u64) -> Option<JobStatus> {
        let mut st = self.inner.state.lock().unwrap();
        loop {
            match st.jobs.get(&seq) {
                None => return None,
                Some(r) if r.status.is_terminal() => return Some(r.status.clone()),
                Some(_) => st = self.inner.change.wait(st).unwrap(),
            }
        }
    }

    /// Like [`Server::wait`], bounded; `None` on timeout or unknown seq.
    pub fn wait_timeout(&self, seq: u64, dur: Duration) -> Option<JobStatus> {
        let deadline = Instant::now() + dur;
        let mut st = self.inner.state.lock().unwrap();
        loop {
            match st.jobs.get(&seq) {
                None => return None,
                Some(r) if r.status.is_terminal() => return Some(r.status.clone()),
                Some(_) => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return None;
                    }
                    let (guard, timeout) = self.inner.change.wait_timeout(st, left).unwrap();
                    st = guard;
                    if timeout.timed_out() {
                        return None;
                    }
                }
            }
        }
    }

    /// The dendrogram + result for a client job id, when it finished.
    pub fn query(&self, job_id: &str) -> Option<Arc<CachedResult>> {
        let st = self.inner.state.lock().unwrap();
        let seq = st.by_id.get(job_id)?;
        match &st.jobs.get(seq)?.status {
            JobStatus::Done { result, .. } => Some(result.clone()),
            _ => None,
        }
    }

    /// Cancel a job: a queued one is removed immediately
    /// (`Cancelled { at_phase: None }`); a running one has its token
    /// set and stops cooperatively at the next phase boundary. Returns
    /// `false` for unknown or already-terminal jobs.
    pub fn cancel_job(&self, seq: u64) -> bool {
        let mut st = self.inner.state.lock().unwrap();
        let Some(record) = st.jobs.get(&seq) else {
            return false;
        };
        match record.status {
            JobStatus::Queued => {
                let job_id = record.spec.job_id.clone();
                st.queue.retain(|&q| q != seq);
                if let Some(r) = st.jobs.get_mut(&seq) {
                    r.status = JobStatus::Cancelled { at_phase: None };
                }
                self.inner.metrics.counter_add("serve.jobs_cancelled", 1);
                self.sync_queue_depth(&st);
                drop(st);
                self.inner.ops.emit(
                    OpKind::JobCancelled,
                    Some(&job_id),
                    vec![("while", Json::str("queued"))],
                );
                self.inner.change.notify_all();
                true
            }
            JobStatus::Running => {
                record.cancel.store(true, Ordering::SeqCst);
                true
            }
            _ => false,
        }
    }

    /// Orderly shutdown: stop accepting, shed the queue, ask running
    /// jobs to stop at their next phase boundary (their checkpoints
    /// stay durable for a later resume), wait for them, then stop and
    /// join the workers.
    pub fn drain(&self) {
        let mut st = self.inner.state.lock().unwrap();
        st.accepting = false;
        let shed: Vec<u64> = st.queue.drain(..).collect();
        self.inner.ops.emit(
            OpKind::DrainBegin,
            None,
            vec![("shed", Json::Num(shed.len() as f64))],
        );
        for seq in &shed {
            if let Some(r) = st.jobs.get_mut(seq) {
                r.status = JobStatus::Cancelled { at_phase: None };
                self.inner.metrics.counter_add("serve.jobs_cancelled", 1);
                let job_id = r.spec.job_id.clone();
                self.inner.ops.emit(
                    OpKind::JobCancelled,
                    Some(&job_id),
                    vec![("while", Json::str("shed_at_drain"))],
                );
            }
        }
        self.sync_queue_depth(&st);
        for r in st.jobs.values() {
            if matches!(r.status, JobStatus::Running) {
                r.cancel.store(true, Ordering::SeqCst);
            }
        }
        while st.running > 0 {
            st = self.inner.change.wait(st).unwrap();
        }
        st.stop_workers = true;
        drop(st);
        self.inner.change.notify_all();
        self.inner.work.notify_all();
        let handles: Vec<_> = std::mem::take(&mut *self.inner.handles.lock().unwrap());
        for h in handles {
            let _ = h.join();
        }
        self.inner.ops.emit(OpKind::DrainEnd, None, vec![]);
        self.log("drained");
    }

    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.inner.metrics.snapshot()
    }

    /// The live snapshot rendered as Prometheus exposition text. Every
    /// name is validated against the metric registry; an unregistered
    /// name is an error, not a silently-exported stranger.
    pub fn prometheus_text(&self) -> Result<String, String> {
        louvain_obs::prometheus_text(&self.metrics_snapshot())
    }

    fn worker_loop(&self) {
        loop {
            let (seq, spec, cancel, progress) = {
                let mut st = self.inner.state.lock().unwrap();
                loop {
                    if st.stop_workers {
                        return;
                    }
                    if let Some(seq) = st.queue.pop_front() {
                        self.sync_queue_depth(&st);
                        st.running += 1;
                        self.inner
                            .metrics
                            .gauge_set("serve.jobs_running", st.running as f64);
                        let r = st.jobs.get_mut(&seq).expect("queued job has a record");
                        r.status = JobStatus::Running;
                        break (seq, r.spec.clone(), r.cancel.clone(), r.progress.clone());
                    }
                    st = self.inner.work.wait(st).unwrap();
                }
            };
            self.inner.ops.emit(
                OpKind::JobStarted,
                Some(&spec.job_id),
                vec![("seq", Json::Num(seq as f64))],
            );
            let started = self.job_submitted_at(seq);
            let status = self.run_job(&spec, &cancel, &progress);
            let latency_ms = started.elapsed().as_millis() as u64;
            self.inner
                .metrics
                .hist_observe("serve.job_latency_ms", latency_ms);
            self.emit_terminal_event(&spec.job_id, seq, &status, latency_ms);
            let mut st = self.inner.state.lock().unwrap();
            st.running -= 1;
            self.inner
                .metrics
                .gauge_set("serve.jobs_running", st.running as f64);
            if let Some(r) = st.jobs.get_mut(&seq) {
                self.log(&format!("job {} #{seq}: {:?}", spec.job_id, kind(&status)));
                r.status = status;
            }
            drop(st);
            self.inner.change.notify_all();
        }
    }

    fn emit_terminal_event(&self, job_id: &str, seq: u64, status: &JobStatus, latency_ms: u64) {
        let ops = &self.inner.ops;
        match status {
            JobStatus::Done {
                cached,
                resumed_from_phase,
                ..
            } => {
                if let Some(phase) = resumed_from_phase {
                    ops.emit(
                        OpKind::JobResumed,
                        Some(job_id),
                        vec![("from_phase", Json::Num(*phase as f64))],
                    );
                }
                ops.emit(
                    OpKind::JobDone,
                    Some(job_id),
                    vec![
                        ("seq", Json::Num(seq as f64)),
                        ("cached", Json::Bool(*cached)),
                        ("latency_ms", Json::Num(latency_ms as f64)),
                    ],
                );
            }
            JobStatus::Failed { error, .. } => {
                ops.emit(
                    OpKind::JobFailed,
                    Some(job_id),
                    vec![("error", Json::str(error.clone()))],
                );
            }
            JobStatus::Quarantined { error, attempts } => {
                ops.emit(
                    OpKind::JobQuarantined,
                    Some(job_id),
                    vec![
                        ("error", Json::str(error.clone())),
                        ("attempts", Json::Num(*attempts as f64)),
                    ],
                );
            }
            JobStatus::Cancelled { at_phase } => {
                ops.emit(
                    OpKind::JobCancelled,
                    Some(job_id),
                    vec![(
                        "at_phase",
                        at_phase.map_or(Json::Null, |p| Json::Num(p as f64)),
                    )],
                );
            }
            JobStatus::Queued | JobStatus::Running => {}
        }
    }

    fn job_submitted_at(&self, seq: u64) -> Instant {
        self.inner
            .state
            .lock()
            .unwrap()
            .jobs
            .get(&seq)
            .map(|r| r.submitted)
            .unwrap_or_else(Instant::now)
    }

    /// Run one job to a terminal status. Never panics the worker: every
    /// failure becomes a structured `Failed`/`Quarantined` status.
    fn run_job(
        &self,
        spec: &JobSpec,
        cancel: &Arc<AtomicBool>,
        progress: &Arc<Mutex<JobProgress>>,
    ) -> JobStatus {
        let m = &self.inner.metrics;
        let path = &spec.graph;
        // The magic sniff refuses a text file before anything hashes it.
        let keyed = match sniff_kind(path) {
            Ok(FileKind::Slab) => graph_key(path).map_err(|e| e.to_string()),
            Ok(FileKind::Text) => Err("not a slab; build one with `louvain ingest` \
                 or `louvain generate`"
                .to_string()),
            Err(e) => Err(e.to_string()),
        };
        let graph_fp = match keyed {
            Ok(fp) => fp,
            Err(e) => {
                return JobStatus::Failed {
                    error: format!("cannot read graph {}: {e}", path.display()),
                    attempts: 0,
                }
            }
        };
        let key = JobKey {
            graph_fp,
            config_fp: config_fingerprint(&spec.cfg),
            ranks: spec.ranks,
        };

        // Poisoned-job ladder: a key past the threshold is refused
        // without running. The daemon never crashes on its account.
        let attempts_so_far = {
            let st = self.inner.state.lock().unwrap();
            st.poisoned.get(&key).copied().unwrap_or(0)
        };
        if attempts_so_far >= self.inner.cfg.quarantine_after {
            m.counter_add("serve.jobs_quarantined", 1);
            return JobStatus::Quarantined {
                error: format!("job key quarantined after {attempts_so_far} failed attempts"),
                attempts: attempts_so_far,
            };
        }

        // Result cache: an identical submission is answered without a run.
        if let Some(hit) = self.inner.state.lock().unwrap().cache.get(&key) {
            m.counter_add("serve.cache_hits", 1);
            m.counter_add("serve.jobs_completed", 1);
            return JobStatus::Done {
                cached: true,
                resumed_from_phase: None,
                crash_recoveries: 0,
                hang_recoveries: 0,
                wall_ms: 0,
                result: hit,
            };
        }
        m.counter_add("serve.cache_misses", 1);

        let ckpt_dir = self.inner.cfg.checkpoint_root.join(key.dir_name());
        let resil = ResilOptions {
            checkpoint: Some(CheckpointOptions::new(&ckpt_dir)),
            resume: true,
            crash_budget: spec
                .max_crash_recoveries
                .unwrap_or(self.inner.cfg.max_crash_recoveries),
            hang_budget: spec
                .max_hang_recoveries
                .unwrap_or(self.inner.cfg.max_hang_recoveries),
            cancel: Some(cancel.clone()),
            record_levels: true,
            // Every served job publishes live progress: the rows feed
            // `watch` subscribers, the `status` current-phase fields,
            // and the artifact's telemetry section — all from the
            // telemetry records the run produces anyway.
            progress: Some(Arc::new(JobProgressSink {
                job_id: spec.job_id.clone(),
                progress: progress.clone(),
                ops: Arc::clone(&self.inner.ops),
                last_phase: Mutex::new(None),
            })),
        };
        let mut runcfg = RunConfig::default();
        if let Some(plan) = spec.fault_plan.as_deref() {
            match FaultPlan::parse(plan) {
                Ok(p) if !p.is_empty() => runcfg.fault = Some(Arc::new(p)),
                Ok(_) => {}
                Err(e) => return self.record_failure(&key, format!("bad fault plan: {e}")),
            }
        }

        let outcome = match self.load_and_run(spec, runcfg, &resil) {
            Ok(v) => v,
            Err(e) => {
                if let Some(rest) = e.strip_prefix(CANCELLED_AT_PHASE) {
                    m.counter_add("serve.jobs_cancelled", 1);
                    return JobStatus::Cancelled {
                        at_phase: rest.trim().parse::<u64>().ok(),
                    };
                }
                return self.record_failure(&key, e);
            }
        };
        let (out, vertices, edges) = outcome;

        // Phase checkpoints below the newest manifest are dead weight
        // now that the run finished — retire them.
        if let Ok(store) = CheckpointStore::new(&ckpt_dir) {
            if store.prune_superseded().is_ok() {
                self.inner.ops.emit(
                    OpKind::CheckpointGc,
                    Some(&spec.job_id),
                    vec![("dir", Json::str(ckpt_dir.to_string_lossy().into_owned()))],
                );
            }
        }

        let graph_name = spec
            .graph
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "graph".to_string());
        let mut meta = ReportMeta::new(graph_name.clone(), vertices, edges);
        meta.variant = spec.cfg.variant.label();
        meta.threads_per_rank = spec.cfg.threads_per_rank;
        let report = build_run_report(&out, &meta);
        // The artifact's telemetry section is the progress stream
        // itself, sorted into canonical `(phase, iteration)` order —
        // so what a `watch` subscriber saw live is bit-for-bit what the
        // final artifact records.
        let telemetry = {
            let mut rows = progress.lock().unwrap().rows.clone();
            rows.sort_by_key(|r| (r.phase, r.iteration));
            rows
        };
        let artifact = RunArtifact {
            name: format!("serve:{}", spec.job_id),
            description: format!("served job on {}", spec.graph.display()),
            runs: vec![RunEntry {
                label: run_label(&graph_name, spec.ranks, "serve"),
                report,
                telemetry,
            }],
        };
        let cached = CachedResult {
            key,
            modularity: out.modularity,
            num_communities: out.num_communities,
            phases: out.phases,
            assignment: out.assignment,
            levels: out.levels,
            artifact,
        };
        let result = {
            let mut st = self.inner.state.lock().unwrap();
            st.poisoned.remove(&key);
            let evicted = st.cache.insert(cached);
            if evicted > 0 {
                m.counter_add("serve.cache_evictions", evicted as u64);
            }
            st.cache.get(&key).expect("just inserted")
        };
        m.counter_add("serve.jobs_completed", 1);
        if out.resumed_from_phase.is_some() {
            m.counter_add("serve.jobs_resumed", 1);
        }
        JobStatus::Done {
            cached: false,
            resumed_from_phase: out.resumed_from_phase,
            crash_recoveries: out.crash_recoveries,
            hang_recoveries: out.hung_events.len() as u64,
            wall_ms: out.wall.as_millis() as u64,
            result,
        }
    }

    /// Bump the poison ladder for a failed key and decide Failed vs
    /// Quarantined.
    fn record_failure(&self, key: &JobKey, error: String) -> JobStatus {
        let attempts = {
            let mut st = self.inner.state.lock().unwrap();
            let e = st.poisoned.entry(*key).or_insert(0);
            *e += 1;
            *e
        };
        if attempts >= self.inner.cfg.quarantine_after {
            self.inner.metrics.counter_add("serve.jobs_quarantined", 1);
            JobStatus::Quarantined { error, attempts }
        } else {
            JobStatus::Failed { error, attempts }
        }
    }

    /// Run the job on its slab, verified end to end first: the
    /// byte-range load checks only the small sections, and a run on a
    /// corrupt body would be cached under the key of the content its
    /// header declares. Returns the outcome plus the input's (vertices,
    /// edges) for the report.
    fn load_and_run(
        &self,
        spec: &JobSpec,
        runcfg: RunConfig,
        resil: &ResilOptions,
    ) -> Result<(louvain_dist::DistOutcome, u64, u64), String> {
        let path = &spec.graph;
        let h = verify(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let out = run_distributed_resilient_source(
            GraphSource::SlabRanged(path),
            spec.ranks,
            &spec.cfg,
            runcfg,
            resil,
        )?;
        Ok((out, h.num_vertices, h.num_edges))
    }
}

fn kind(status: &JobStatus) -> &'static str {
    match status {
        JobStatus::Queued => "queued",
        JobStatus::Running => "running",
        JobStatus::Done { cached: true, .. } => "done (cached)",
        JobStatus::Done { cached: false, .. } => "done",
        JobStatus::Failed { .. } => "failed",
        JobStatus::Quarantined { .. } => "quarantined",
        JobStatus::Cancelled { .. } => "cancelled",
    }
}
