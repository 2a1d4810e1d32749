//! The fault-tolerant, multi-tenant job execution service.
//!
//! The paper's user story runs circuits through the IBM Q Experience
//! cloud: submissions enter a shared queue behind other users, wait,
//! run, and sometimes fail or vanish while a device recalibrates. This
//! module reproduces that service shape locally — and, since PR 6, the
//! *robustness* a shared service needs:
//!
//! - a [`JobExecutor`] with a bounded queue and a worker pool turns
//!   `submit(circuit, backend, shots)` into a [`Job`] handle with the
//!   Qiskit-style lifecycle;
//! - per-tenant [`Session`]s ride a weighted-fair scheduler
//!   ([`crate::scheduler`]) with priority classes and admission
//!   control: a tenant over its queue depth is load-shed with a typed
//!   [`JobStatus::Rejected`] instead of growing the queue unboundedly;
//! - an optional write-ahead journal ([`crate::journal`]) lets every
//!   accepted job survive a process crash (not power loss: records are
//!   flushed to the OS, not fsynced): on restart the executor replays
//!   the log, re-enqueues non-terminal jobs exactly once, and
//!   deduplicates via client idempotency keys;
//! - an optional content-addressed result cache ([`crate::cache`])
//!   turns repeat submissions into a cheap re-sample of the cached
//!   distribution.
//!
//! ```text
//! Queued ──► Running ──► Done       (possibly served from cache)
//!    │          ├──────► Error      (fatal, or retries exhausted)
//!    │          ├──────► TimedOut   (attempt exceeded its budget)
//!    │          └──────► Cancelled  (cancel observed between attempts
//!    │                               or during a retry backoff)
//!    ├─────────────────► Cancelled  (cancelled while still queued)
//!    └─────────────────► Rejected   (load-shed at admission)
//! ```
//!
//! Each attempt is wrapped in the executor's [`RetryPolicy`]: transient
//! failures back off (deterministic seeded jitter) and retry, fatal
//! errors stop immediately, and hung attempts are abandoned by the
//! worker once the per-attempt timeout elapses. A cancellation during
//! the backoff wait interrupts it promptly instead of finishing the
//! sleep.

use crate::cache::{self, CacheConfig, CacheHit, ResultCache};
use crate::error::{QukitError, Result};
use crate::execute::validate_submission;
use crate::journal::{self, Journal, JournalRecord};
use crate::provider::Provider;
use crate::retry::RetryPolicy;
use crate::scheduler::{Admission, Priority, Scheduler, TenantConfig};
use qukit_aer::counts::Counts;
use qukit_terra::circuit::QuantumCircuit;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The tenant legacy [`JobExecutor::submit`] calls run under.
pub const DEFAULT_TENANT: &str = "default";

/// The lifecycle state of a [`Job`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Accepted and waiting in the submission queue.
    Queued,
    /// A worker is executing attempts.
    Running,
    /// Finished successfully; the result is available.
    Done,
    /// Failed fatally or exhausted its retries.
    Error,
    /// Cancelled before a result was produced.
    Cancelled,
    /// An attempt exceeded the per-attempt timeout.
    TimedOut,
    /// Load-shed at admission: the tenant was over its queue depth.
    Rejected,
}

impl JobStatus {
    /// `true` once the status can no longer change.
    pub fn is_terminal(self) -> bool {
        !matches!(self, JobStatus::Queued | JobStatus::Running)
    }

    /// Parses the wire name written to the journal (the `Display`
    /// form) back into a status.
    pub fn parse(text: &str) -> Option<Self> {
        match text {
            "QUEUED" => Some(JobStatus::Queued),
            "RUNNING" => Some(JobStatus::Running),
            "DONE" => Some(JobStatus::Done),
            "ERROR" => Some(JobStatus::Error),
            "CANCELLED" => Some(JobStatus::Cancelled),
            "TIMED_OUT" => Some(JobStatus::TimedOut),
            "REJECTED" => Some(JobStatus::Rejected),
            _ => None,
        }
    }
}

impl std::fmt::Display for JobStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let text = match self {
            JobStatus::Queued => "QUEUED",
            JobStatus::Running => "RUNNING",
            JobStatus::Done => "DONE",
            JobStatus::Error => "ERROR",
            JobStatus::Cancelled => "CANCELLED",
            JobStatus::TimedOut => "TIMED_OUT",
            JobStatus::Rejected => "REJECTED",
        };
        f.write_str(text)
    }
}

/// Mutable job state behind the handle's mutex.
#[derive(Debug)]
struct JobState {
    status: JobStatus,
    result: Option<Counts>,
    error: Option<String>,
    attempts: u32,
    backoffs: Vec<Duration>,
    executed_on: Option<String>,
    cancel_requested: bool,
    from_cache: bool,
}

/// Shared core of a job: state + wakeup for `result()` waiters.
#[derive(Debug)]
struct JobShared {
    id: u64,
    backend_name: String,
    shots: usize,
    tenant: String,
    trace_id: u64,
    journal: Option<Arc<Journal>>,
    state: Mutex<JobState>,
    cond: Condvar,
}

impl JobShared {
    fn update<T>(&self, f: impl FnOnce(&mut JobState) -> T) -> T {
        let mut state = self.state.lock().expect("job state lock");
        let out = f(&mut state);
        self.cond.notify_all();
        out
    }

    /// Waits out `backoff` unless a cancellation arrives first;
    /// returns `true` when the wait ended because of a cancel. This is
    /// what makes [`Job::cancel`] prompt during retry backoffs — the
    /// condvar is signalled by `cancel()`'s state update.
    fn wait_for_cancel(&self, backoff: Duration) -> bool {
        let deadline = Instant::now() + backoff;
        let mut state = self.state.lock().expect("job state lock");
        loop {
            if state.cancel_requested {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (next, _) = self.cond.wait_timeout(state, deadline - now).expect("job state lock");
            state = next;
        }
    }
}

/// A handle to a submitted job. Clones share the same underlying job.
///
/// See the [module docs](self) for the lifecycle; the handle exposes
/// [`status`](Job::status), blocking [`result`](Job::result) /
/// [`wait`](Job::wait), [`cancel`](Job::cancel), and the recovery
/// metadata ([`attempts`](Job::attempts), [`backoffs`](Job::backoffs),
/// [`executed_on`](Job::executed_on),
/// [`served_from_cache`](Job::served_from_cache)).
#[derive(Clone, Debug)]
pub struct Job {
    shared: Arc<JobShared>,
}

impl Job {
    fn new(
        id: u64,
        backend_name: String,
        shots: usize,
        tenant: String,
        trace_id: u64,
        journal: Option<Arc<Journal>>,
    ) -> Self {
        Self {
            shared: Arc::new(JobShared {
                id,
                backend_name,
                shots,
                tenant,
                trace_id,
                journal,
                state: Mutex::new(JobState {
                    status: JobStatus::Queued,
                    result: None,
                    error: None,
                    attempts: 0,
                    backoffs: Vec::new(),
                    executed_on: None,
                    cancel_requested: false,
                    from_cache: false,
                }),
                cond: Condvar::new(),
            }),
        }
    }

    /// The executor-unique job id.
    pub fn id(&self) -> u64 {
        self.shared.id
    }

    /// The backend name the job was submitted to.
    pub fn backend_name(&self) -> &str {
        &self.shared.backend_name
    }

    /// The submitted shot count.
    pub fn shots(&self) -> usize {
        self.shared.shots
    }

    /// The tenant the job was submitted under.
    pub fn tenant(&self) -> &str {
        &self.shared.tenant
    }

    /// The id of the job's causal trace: every span recorded on this
    /// job's behalf — submit, queue wait, attempts, transpile passes,
    /// engine kernels — carries this id. Minted once at submission and
    /// journaled, so a journal-backed restart reconstructs the job
    /// under the *same* trace id.
    pub fn trace_id(&self) -> u64 {
        self.shared.trace_id
    }

    /// The current lifecycle status.
    pub fn status(&self) -> JobStatus {
        self.shared.state.lock().expect("job state lock").status
    }

    /// How many execution attempts have started (0 for a cache hit).
    pub fn attempts(&self) -> u32 {
        self.shared.state.lock().expect("job state lock").attempts
    }

    /// The backoffs waited before each retry, in order.
    pub fn backoffs(&self) -> Vec<Duration> {
        self.shared.state.lock().expect("job state lock").backoffs.clone()
    }

    /// The backend that actually served the result (for plain backends
    /// this equals [`backend_name`](Job::backend_name); for a
    /// [`FallbackChain`](crate::fault::FallbackChain) it names the member
    /// that succeeded). `None` until the job is `Done`.
    pub fn executed_on(&self) -> Option<String> {
        self.shared.state.lock().expect("job state lock").executed_on.clone()
    }

    /// `true` when the result was re-sampled from the executor's
    /// content-addressed cache instead of a fresh simulation.
    pub fn served_from_cache(&self) -> bool {
        self.shared.state.lock().expect("job state lock").from_cache
    }

    /// The failure message of an `Error`/`Rejected` job, if any.
    pub fn error_message(&self) -> Option<String> {
        self.shared.state.lock().expect("job state lock").error.clone()
    }

    /// Requests cancellation. A still-queued job flips to `Cancelled`
    /// immediately (and returns `true`); a running job is cancelled at
    /// the next attempt boundary — or promptly, if the worker is
    /// waiting out a retry backoff. In-flight attempts are not
    /// interrupted, matching the cloud service's semantics. Terminal
    /// jobs are unaffected.
    pub fn cancel(&self) -> bool {
        let flipped = self.shared.update(|state| {
            state.cancel_requested = true;
            if state.status == JobStatus::Queued {
                state.status = JobStatus::Cancelled;
                true
            } else {
                false
            }
        });
        if flipped {
            // This thread performed the Queued→Cancelled transition, so
            // it owns the job's (single) terminal journal record.
            journal_terminal(
                &self.shared.journal,
                self.shared.id,
                JobStatus::Cancelled,
                Some("cancelled while queued"),
                None,
                None,
            );
        }
        flipped
    }

    /// Blocks until the job reaches a terminal state or `deadline`
    /// elapses, then returns the result.
    ///
    /// # Errors
    ///
    /// - [`QukitError::WaitTimeout`] when the deadline elapses with the
    ///   job still `Queued`/`Running` — the *wait* gave up, not the
    ///   job; poll again with a longer deadline.
    /// - [`QukitError::Job`] when the job ended
    ///   `Cancelled`/`TimedOut`/`Rejected`, or with the recorded
    ///   failure for `Error` jobs.
    pub fn result(&self, deadline: Duration) -> Result<Counts> {
        let limit = Instant::now() + deadline;
        let mut state = self.shared.state.lock().expect("job state lock");
        while !state.status.is_terminal() {
            let now = Instant::now();
            if now >= limit {
                return Err(QukitError::WaitTimeout {
                    job_id: self.shared.id,
                    status: state.status.to_string(),
                    waited: deadline,
                });
            }
            let (next, timeout) =
                self.shared.cond.wait_timeout(state, limit - now).expect("job state lock");
            state = next;
            let _ = timeout;
        }
        match state.status {
            JobStatus::Done => Ok(state.result.clone().expect("done job has counts")),
            JobStatus::Error => Err(QukitError::Job {
                msg: format!(
                    "job {} failed: {}",
                    self.shared.id,
                    state.error.as_deref().unwrap_or("unknown error")
                ),
            }),
            JobStatus::Cancelled => {
                Err(QukitError::Job { msg: format!("job {} was cancelled", self.shared.id) })
            }
            JobStatus::TimedOut => Err(QukitError::Job {
                msg: format!(
                    "job {} timed out: {}",
                    self.shared.id,
                    state.error.as_deref().unwrap_or("attempt exceeded its time budget")
                ),
            }),
            JobStatus::Rejected => Err(QukitError::Job {
                msg: format!(
                    "job {} was rejected: {}",
                    self.shared.id,
                    state.error.as_deref().unwrap_or("admission control shed the submission")
                ),
            }),
            JobStatus::Queued | JobStatus::Running => unreachable!("loop exits on terminal status"),
        }
    }

    /// [`result`](Job::result) with an effectively unbounded deadline.
    pub fn wait(&self) -> Result<Counts> {
        self.result(Duration::from_secs(u64::MAX / 4))
    }
}

/// A lifecycle event emitted by the [`JobExecutor`].
///
/// Events fire synchronously on the thread where the transition happens
/// (`Enqueued`/`Rejected` on the submitting thread, everything else on
/// a worker), so observers should return quickly. Before this hook
/// existed retries were *silent*: a job could burn through five
/// attempts and the only trace was the final `attempts()` count. Every
/// recovery decision now surfaces as an event.
#[derive(Debug, Clone, PartialEq)]
pub enum JobEvent {
    /// The job was accepted into the submission queue.
    Enqueued {
        /// Executor-unique job id.
        job_id: u64,
        /// Backend the job was submitted to.
        backend: String,
    },
    /// The job was load-shed at admission (tenant over its depth).
    Rejected {
        /// Executor-unique job id.
        job_id: u64,
        /// The tenant whose bound was hit.
        tenant: String,
    },
    /// A worker dequeued the job and began its first attempt.
    Started {
        /// Executor-unique job id.
        job_id: u64,
        /// Backend the job was submitted to.
        backend: String,
    },
    /// A transient failure will be retried after `backoff`.
    Retrying {
        /// Executor-unique job id.
        job_id: u64,
        /// The attempt (1-based) that just failed.
        attempt: u32,
        /// The backoff that will be waited before the next attempt.
        backoff: Duration,
        /// The transient failure being retried.
        error: String,
    },
    /// An attempt exceeded the per-attempt budget; the job is terminal.
    TimedOut {
        /// Executor-unique job id.
        job_id: u64,
        /// The attempt (1-based) that was abandoned.
        attempt: u32,
    },
    /// The job failed fatally or exhausted its retries.
    Failed {
        /// Executor-unique job id.
        job_id: u64,
        /// Total attempts consumed.
        attempts: u32,
        /// The final failure.
        error: String,
    },
    /// The job was cancelled before producing a result.
    Cancelled {
        /// Executor-unique job id.
        job_id: u64,
        /// `true` when the job never started running (cancelled while
        /// still in the queue).
        while_queued: bool,
    },
    /// The job finished successfully.
    Completed {
        /// Executor-unique job id.
        job_id: u64,
        /// Total attempts consumed (0 when served from the cache).
        attempts: u32,
        /// Backend that actually served the result.
        executed_on: String,
        /// Submit-to-done latency (queue wait included).
        elapsed: Duration,
    },
}

impl JobEvent {
    /// The id of the job this event concerns.
    pub fn job_id(&self) -> u64 {
        match self {
            JobEvent::Enqueued { job_id, .. }
            | JobEvent::Rejected { job_id, .. }
            | JobEvent::Started { job_id, .. }
            | JobEvent::Retrying { job_id, .. }
            | JobEvent::TimedOut { job_id, .. }
            | JobEvent::Failed { job_id, .. }
            | JobEvent::Cancelled { job_id, .. }
            | JobEvent::Completed { job_id, .. } => *job_id,
        }
    }
}

/// A subscriber to [`JobEvent`]s. Implementations must be cheap and
/// thread-safe; they run inline on executor threads. Terminal events
/// are emitted *before* the job handle flips to its terminal status, so
/// a thread woken by [`Job::result`] observes every event of its job —
/// consequently observers must not block on job handles themselves.
pub trait JobObserver: Send + Sync {
    /// Called once per lifecycle event.
    fn on_event(&self, event: &JobEvent);
}

/// The default [`JobObserver`]: translates lifecycle events into
/// `qukit_core_*` metrics. Every callback is a no-op while metrics are
/// disabled, so the default wiring costs one atomic load per event.
#[derive(Debug, Clone, Copy, Default)]
pub struct MetricsJobObserver;

impl JobObserver for MetricsJobObserver {
    fn on_event(&self, event: &JobEvent) {
        match event {
            JobEvent::Enqueued { .. } => {
                qukit_obs::counter_inc("qukit_core_jobs_submitted_total");
                qukit_obs::gauge_add("qukit_core_queue_depth", 1.0);
            }
            JobEvent::Rejected { .. } => {
                qukit_obs::counter_inc("qukit_core_jobs_shed_total");
            }
            JobEvent::Started { .. } => qukit_obs::gauge_add("qukit_core_queue_depth", -1.0),
            JobEvent::Retrying { .. } => qukit_obs::counter_inc("qukit_core_job_retries_total"),
            JobEvent::TimedOut { .. } => qukit_obs::counter_inc("qukit_core_job_timeouts_total"),
            JobEvent::Failed { .. } => qukit_obs::counter_inc("qukit_core_job_failures_total"),
            JobEvent::Cancelled { while_queued, .. } => {
                qukit_obs::counter_inc("qukit_core_job_cancellations_total");
                if *while_queued {
                    qukit_obs::gauge_add("qukit_core_queue_depth", -1.0);
                }
            }
            JobEvent::Completed { elapsed, .. } => {
                qukit_obs::counter_inc("qukit_core_jobs_completed_total");
                qukit_obs::observe("qukit_core_job_seconds", elapsed.as_secs_f64());
            }
        }
    }
}

/// The set of observers an executor notifies. Cloning shares the
/// underlying observers (they are `Arc`ed).
#[derive(Clone, Default)]
pub struct ObserverSet {
    observers: Vec<Arc<dyn JobObserver>>,
}

impl ObserverSet {
    /// An empty set (no subscribers at all — not even metrics).
    pub fn none() -> Self {
        Self::default()
    }

    /// The default wiring: just the [`MetricsJobObserver`].
    pub fn metrics() -> Self {
        Self { observers: vec![Arc::new(MetricsJobObserver)] }
    }

    /// Adds an observer (builder style).
    pub fn with(mut self, observer: Arc<dyn JobObserver>) -> Self {
        self.observers.push(observer);
        self
    }

    /// Number of subscribed observers.
    pub fn len(&self) -> usize {
        self.observers.len()
    }

    /// `true` when no observers are subscribed.
    pub fn is_empty(&self) -> bool {
        self.observers.is_empty()
    }

    fn emit(&self, event: &JobEvent) {
        for observer in &self.observers {
            observer.on_event(event);
        }
    }
}

impl std::fmt::Debug for ObserverSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ObserverSet({} observers)", self.observers.len())
    }
}

/// Configuration of a [`JobExecutor`].
#[derive(Debug, Clone)]
pub struct ExecutorConfig {
    /// Worker threads executing jobs concurrently.
    pub workers: usize,
    /// Bounded submission-queue capacity (global, across all tenants);
    /// a full queue rejects submissions with [`QukitError::Job`]
    /// instead of blocking.
    pub queue_capacity: usize,
    /// Retry policy applied to every job.
    pub retry: RetryPolicy,
    /// Lifecycle-event subscribers (defaults to the metrics layer).
    pub observers: ObserverSet,
    /// Parallel-simulation configuration pushed onto every provider
    /// backend at construction (`None` leaves backends untouched, so
    /// the environment-derived default still applies).
    pub parallel: Option<qukit_aer::parallel::ParallelConfig>,
    /// Directory for the write-ahead job journal. `None` (the default)
    /// runs without persistence; `Some(dir)` replays `dir`'s journal at
    /// construction and logs every subsequent submission/terminal.
    pub journal_dir: Option<PathBuf>,
    /// Content-addressed result cache. `None` (the default) disables
    /// caching — a seeded backend then reproduces bit-for-bit identical
    /// counts on every run, which the cache's re-sampling would not.
    pub cache: Option<CacheConfig>,
}

impl Default for ExecutorConfig {
    /// Two workers, a 64-slot queue, the default [`RetryPolicy`], the
    /// [`MetricsJobObserver`] subscribed, no journal, no cache.
    fn default() -> Self {
        Self {
            workers: 2,
            queue_capacity: 64,
            retry: RetryPolicy::default(),
            observers: ObserverSet::metrics(),
            parallel: None,
            journal_dir: None,
            cache: None,
        }
    }
}

/// Options for [`JobExecutor::submit_with`].
#[derive(Debug, Clone)]
pub struct SubmitOptions {
    /// Tenant to schedule under (defaults to [`DEFAULT_TENANT`]).
    pub tenant: String,
    /// Priority class within the tenant.
    pub priority: Priority,
    /// Client idempotency key: resubmitting an identical key returns
    /// the original [`Job`] instead of creating a duplicate, across
    /// journal-backed restarts too.
    pub idempotency_key: Option<String>,
}

impl Default for SubmitOptions {
    fn default() -> Self {
        Self {
            tenant: DEFAULT_TENANT.to_owned(),
            priority: Priority::Normal,
            idempotency_key: None,
        }
    }
}

/// What journal replay found at executor construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Non-terminal journaled jobs re-enqueued for execution.
    pub replayed: usize,
    /// Journaled jobs recovered in a terminal state (results served
    /// from the journal, never re-run).
    pub recovered_terminal: usize,
    /// Journal lines dropped as corrupt/torn.
    pub corrupt_dropped: usize,
}

/// A queue entry: the job handle plus the work description.
struct QueuedJob {
    job: Job,
    circuit: QuantumCircuit,
    cache_key: Option<u128>,
    submitted_at: Instant,
}

/// Everything a worker thread needs, bundled for one `Arc`.
struct WorkerContext {
    provider: Arc<Provider>,
    scheduler: Scheduler<QueuedJob>,
    retry: RetryPolicy,
    observers: ObserverSet,
    journal: Option<Arc<Journal>>,
    cache: Option<ResultCache>,
}

/// The job service: weighted-fair multi-tenant queue + worker pool +
/// retry policy over a shared [`Provider`], with optional write-ahead
/// journaling and result caching.
///
/// Dropping the executor closes the queue and joins the workers;
/// already-submitted jobs finish first (abandoned hung attempts are
/// detached, not joined).
///
/// # Examples
///
/// ```
/// use qukit::job::{JobExecutor, JobStatus};
/// use qukit::provider::Provider;
/// use qukit_terra::circuit::QuantumCircuit;
/// use std::time::Duration;
///
/// # fn main() -> Result<(), qukit::error::QukitError> {
/// let executor = JobExecutor::new(Provider::with_defaults());
/// let mut bell = QuantumCircuit::new(2);
/// bell.h(0).unwrap();
/// bell.cx(0, 1).unwrap();
/// let job = executor.submit(&bell, "qasm_simulator", 256)?;
/// let counts = job.result(Duration::from_secs(30))?;
/// assert_eq!(counts.total(), 256);
/// assert_eq!(job.status(), JobStatus::Done);
/// # Ok(())
/// # }
/// ```
pub struct JobExecutor {
    ctx: Arc<WorkerContext>,
    workers: Vec<JoinHandle<()>>,
    next_id: AtomicU64,
    keyed: Mutex<HashMap<String, Job>>,
    recovery: Option<RecoveryReport>,
    recovered: Vec<Job>,
}

impl JobExecutor {
    /// An executor over `provider` with the default [`ExecutorConfig`].
    pub fn new(provider: Provider) -> Self {
        Self::with_config(provider, ExecutorConfig::default())
    }

    /// An executor with an explicit configuration.
    ///
    /// # Panics
    ///
    /// Panics when the journal directory cannot be opened or replayed;
    /// use [`try_with_config`](Self::try_with_config) to handle that.
    /// Configurations without `journal_dir` cannot fail.
    pub fn with_config(provider: Provider, config: ExecutorConfig) -> Self {
        Self::try_with_config(provider, config).expect("executor configuration")
    }

    /// An executor with an explicit configuration, surfacing journal
    /// open/replay failures.
    ///
    /// # Errors
    ///
    /// [`QukitError::Job`] when the journal directory cannot be
    /// created, opened, or read.
    pub fn try_with_config(mut provider: Provider, config: ExecutorConfig) -> Result<Self> {
        if let Some(parallel) = config.parallel {
            provider.set_parallel(parallel);
        }
        let provider = Arc::new(provider);
        let scheduler = Scheduler::new(config.queue_capacity);
        scheduler.set_tenant(DEFAULT_TENANT, TenantConfig::unbounded());
        let cache = config.cache.map(|c| ResultCache::new(c.capacity, &cache::SERIES));

        let mut keyed = HashMap::new();
        let mut recovery = None;
        let mut recovered = Vec::new();
        let mut next_id = 1u64;
        let journal_handle = match &config.journal_dir {
            Some(dir) => {
                let log = journal::replay(dir)?;
                let handle = Arc::new(Journal::reopen(dir, &log)?);
                let mut report = RecoveryReport {
                    corrupt_dropped: log.corrupt_dropped,
                    ..RecoveryReport::default()
                };
                replay_records(
                    &log.records,
                    &handle,
                    &provider,
                    &scheduler,
                    cache.as_ref(),
                    &config.observers,
                    &mut keyed,
                    &mut recovered,
                    &mut next_id,
                    &mut report,
                );
                recovery = Some(report);
                Some(handle)
            }
            None => None,
        };

        let ctx = Arc::new(WorkerContext {
            provider,
            scheduler,
            retry: config.retry,
            observers: config.observers,
            journal: journal_handle,
            cache,
        });
        let workers = (0..config.workers.max(1))
            .map(|_| {
                let ctx = Arc::clone(&ctx);
                std::thread::spawn(move || worker_loop(&ctx))
            })
            .collect();
        Ok(Self {
            ctx,
            workers,
            next_id: AtomicU64::new(next_id),
            keyed: Mutex::new(keyed),
            recovery,
            recovered,
        })
    }

    /// The executor's retry policy.
    pub fn retry_policy(&self) -> &RetryPolicy {
        &self.ctx.retry
    }

    /// The provider backing this executor.
    pub fn provider(&self) -> &Provider {
        &self.ctx.provider
    }

    /// What journal replay found, when a journal is configured.
    pub fn recovery(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// Handles to every job reconstructed from the journal (both the
    /// re-enqueued and the terminal-recovered ones), in journal order.
    pub fn recovered_jobs(&self) -> &[Job] {
        &self.recovered
    }

    /// The job previously submitted under `key`, if any — either live
    /// in this executor or recovered from the journal.
    pub fn job_for_key(&self, key: &str) -> Option<Job> {
        self.keyed.lock().expect("idempotency map lock").get(key).cloned()
    }

    /// Runs a parameter sweep synchronously: transpiles the template
    /// once (when safe, see [`crate::sweep`]) and executes every binding
    /// through the backend's batch path, bypassing per-job submission
    /// overhead (journal records, admission checks, per-binding
    /// transpilation).
    ///
    /// Results are bit-identical to submitting each binding as its own
    /// job on the same seeded backend.
    ///
    /// # Errors
    ///
    /// Unknown backend, invalid submission, binding mismatch, or
    /// execution failure.
    pub fn run_sweep(
        &self,
        template: &qukit_terra::parameter::ParameterizedCircuit,
        bindings: &[Vec<f64>],
        backend_name: &str,
        shots: usize,
    ) -> Result<crate::sweep::SweepReport> {
        let _span =
            qukit_obs::span!("job.run_sweep", backend = backend_name, bindings = bindings.len());
        let backend = self.ctx.provider.get_backend(backend_name)?;
        crate::sweep::run_sweep(backend, template, bindings, shots)
    }

    /// A per-tenant session with the default [`TenantConfig`].
    pub fn session(&self, tenant: &str) -> Session<'_> {
        self.session_with(tenant, TenantConfig::default())
    }

    /// A per-tenant session with an explicit fair-share weight and
    /// queue-depth bound. Re-creating a session reconfigures the
    /// tenant.
    pub fn session_with(&self, tenant: &str, config: TenantConfig) -> Session<'_> {
        self.ctx.scheduler.set_tenant(tenant, config);
        Session { executor: self, tenant: tenant.to_owned() }
    }

    /// Submits a circuit for asynchronous execution under the default
    /// tenant and returns its [`Job`] handle. Terminal measurements are
    /// added when missing, exactly like
    /// [`execute`](crate::execute::execute).
    ///
    /// # Errors
    ///
    /// - [`QukitError::Backend`] for an unknown backend name
    /// - [`QukitError::InvalidInput`] for zero shots or a circuit wider
    ///   than the backend (rejected up front, before queueing)
    /// - [`QukitError::Job`] when the submission queue is full or the
    ///   executor is shutting down
    pub fn submit(
        &self,
        circuit: &QuantumCircuit,
        backend_name: &str,
        shots: usize,
    ) -> Result<Job> {
        self.submit_with(circuit, backend_name, shots, &SubmitOptions::default())
    }

    /// [`submit`](Self::submit) with explicit tenant, priority, and
    /// idempotency key.
    ///
    /// Beyond the [`submit`](Self::submit) errors: a tenant over its
    /// [`TenantConfig::max_pending`] depth gets `Ok` with a job already
    /// in the terminal [`JobStatus::Rejected`] state — load shedding is
    /// an *outcome*, not a caller bug. A duplicate idempotency key
    /// returns the original job.
    pub fn submit_with(
        &self,
        circuit: &QuantumCircuit,
        backend_name: &str,
        shots: usize,
        opts: &SubmitOptions,
    ) -> Result<Job> {
        let backend = self.ctx.provider.get_backend(backend_name)?;
        validate_submission(circuit, backend, shots)?;
        let prepared = if circuit.has_measurements() {
            circuit.clone()
        } else {
            let mut measured = circuit.clone();
            measured.measure_all();
            measured
        };

        // Hold the idempotency map across the whole admission path so
        // two concurrent submits with the same key cannot both enqueue.
        let mut keyed = self.keyed.lock().expect("idempotency map lock");
        if let Some(key) = &opts.idempotency_key {
            if let Some(existing) = keyed.get(key) {
                qukit_obs::counter_inc("qukit_core_jobs_deduped_total");
                return Ok(existing.clone());
            }
        }

        // One trace per job, minted here and nowhere else. The root
        // span id equals the trace id, so journaling the trace id alone
        // is enough to rebuild the root context on recovery.
        let trace = qukit_obs::TraceContext::mint();
        let _trace_guard = trace.attach();
        let _submit_span = qukit_obs::span!(
            "job.submit",
            tenant = opts.tenant,
            backend = backend_name,
            shots = shots,
        );

        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        // Best-effort pre-check keeps shed submissions out of the
        // journal entirely; the push below re-checks authoritatively.
        let verdict = self.ctx.scheduler.would_admit(&opts.tenant);
        if verdict != Admission::Accepted {
            return self.handle_rejection(id, opts, verdict, false, trace.trace_id);
        }

        let qasm = (self.ctx.journal.is_some() || self.ctx.cache.is_some())
            .then(|| qukit_terra::qasm::emit(&prepared));
        let cache_key = match (&self.ctx.cache, &qasm) {
            (Some(_), Some(qasm)) => Some(cache::key(qasm, backend_name, backend.fingerprint())),
            _ => None,
        };
        let job = Job::new(
            id,
            backend_name.to_owned(),
            shots,
            opts.tenant.clone(),
            trace.trace_id,
            self.ctx.journal.clone(),
        );
        if let Some(journal) = &self.ctx.journal {
            // Write-ahead: the submission survives a process crash
            // before it can run.
            journal.append(&JournalRecord::Submitted {
                job_id: id,
                tenant: opts.tenant.clone(),
                priority: opts.priority,
                backend: backend_name.to_owned(),
                shots,
                key: opts.idempotency_key.clone(),
                qasm: qasm.clone().unwrap_or_default(),
                trace: trace.trace_id,
            })?;
        }
        let entry = QueuedJob {
            job: job.clone(),
            circuit: prepared,
            cache_key,
            submitted_at: Instant::now(),
        };
        match self.ctx.scheduler.push(&opts.tenant, opts.priority, entry) {
            Admission::Accepted => {
                if let Some(key) = &opts.idempotency_key {
                    keyed.insert(key.clone(), job.clone());
                }
                qukit_obs::counter_inc_with(
                    "qukit_core_tenant_jobs_submitted_total",
                    &[("tenant", &opts.tenant)],
                );
                self.ctx
                    .observers
                    .emit(&JobEvent::Enqueued { job_id: id, backend: backend_name.to_owned() });
                Ok(job)
            }
            verdict => self.handle_rejection(id, opts, verdict, true, trace.trace_id),
        }
    }

    /// Turns a non-`Accepted` admission verdict into the caller-visible
    /// outcome. `journaled` says whether a `submitted` record was
    /// already written for `id` (the push lost a race to the last
    /// slot), in which case a terminal record keeps replay from
    /// resurrecting the shed job.
    fn handle_rejection(
        &self,
        id: u64,
        opts: &SubmitOptions,
        verdict: Admission,
        journaled: bool,
        trace_id: u64,
    ) -> Result<Job> {
        // The shed decision is part of the job's trace: the submit
        // span is still open on this thread, so this nests under it.
        let _shed_span = qukit_obs::span!("job.shed", tenant = opts.tenant);
        qukit_obs::counter_inc_with(
            "qukit_core_tenant_jobs_shed_total",
            &[("tenant", &opts.tenant)],
        );
        let seal = |reason: &str| {
            if journaled {
                journal_terminal(
                    &self.ctx.journal,
                    id,
                    JobStatus::Rejected,
                    Some(reason),
                    None,
                    None,
                );
            }
        };
        match verdict {
            Admission::TenantFull { queued, max_pending } => {
                let reason = format!(
                    "tenant '{}' is at its queue depth ({queued}/{max_pending}); submission shed",
                    opts.tenant
                );
                seal(&reason);
                let job = Job::new(id, String::new(), 0, opts.tenant.clone(), trace_id, None);
                job.shared.update(|state| {
                    state.status = JobStatus::Rejected;
                    state.error = Some(reason);
                });
                self.ctx
                    .observers
                    .emit(&JobEvent::Rejected { job_id: id, tenant: opts.tenant.clone() });
                Ok(job)
            }
            Admission::QueueFull => {
                let reason =
                    format!("submission queue is full (capacity reached); job {id} rejected");
                seal(&reason);
                Err(QukitError::Job { msg: reason })
            }
            Admission::Closed => {
                seal("executor is shut down");
                Err(QukitError::Job { msg: "executor is shut down".to_owned() })
            }
            Admission::Accepted => unreachable!("accepted verdicts are handled by the caller"),
        }
    }

    /// Closes the queue and waits for the workers to drain it.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    /// Simulates a process crash: seals the journal (straggler writes
    /// are dropped exactly as a dead process would drop them), discards
    /// everything still queued, and detaches the workers without
    /// joining. The journal on disk is left as the crash left it —
    /// rebuild with [`try_with_config`](Self::try_with_config) pointing
    /// at the same `journal_dir` to recover.
    pub fn crash(mut self) {
        if let Some(journal) = &self.ctx.journal {
            journal.seal();
        }
        drop(self.ctx.scheduler.close_discard());
        // Detach instead of joining: a real crash does not wait for
        // in-flight work. The threads exit on their own once their
        // current job ends (their journal appends hit the seal).
        self.workers.drain(..);
    }

    fn shutdown_in_place(&mut self) {
        self.ctx.scheduler.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for JobExecutor {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

/// A tenant-scoped submission handle (see
/// [`JobExecutor::session_with`]). Sessions are cheap views: all state
/// lives in the executor's scheduler.
pub struct Session<'a> {
    executor: &'a JobExecutor,
    tenant: String,
}

impl Session<'_> {
    /// The tenant this session submits under.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// Submits at [`Priority::Normal`] with no idempotency key.
    pub fn submit(
        &self,
        circuit: &QuantumCircuit,
        backend_name: &str,
        shots: usize,
    ) -> Result<Job> {
        self.submit_with(circuit, backend_name, shots, Priority::Normal, None)
    }

    /// Submits with an explicit priority and optional idempotency key.
    pub fn submit_with(
        &self,
        circuit: &QuantumCircuit,
        backend_name: &str,
        shots: usize,
        priority: Priority,
        idempotency_key: Option<&str>,
    ) -> Result<Job> {
        self.executor.submit_with(
            circuit,
            backend_name,
            shots,
            &SubmitOptions {
                tenant: self.tenant.clone(),
                priority,
                idempotency_key: idempotency_key.map(str::to_owned),
            },
        )
    }
}

/// Appends a terminal record, best-effort: a sealed or failing journal
/// must not take down the worker (the in-memory state is still
/// correct; only crash-recovery fidelity degrades, exactly as it would
/// had the process died before the write).
fn journal_terminal(
    journal: &Option<Arc<Journal>>,
    job_id: u64,
    status: JobStatus,
    error: Option<&str>,
    counts: Option<&Counts>,
    executed_on: Option<&str>,
) {
    let Some(journal) = journal else { return };
    let counts = counts.map(|c| {
        let mut pairs: Vec<(u64, usize)> = c.iter().collect();
        pairs.sort_unstable();
        (c.num_clbits(), pairs)
    });
    let _ = journal.append(&JournalRecord::Terminal {
        job_id,
        status: status.to_string(),
        error: error.map(str::to_owned),
        counts,
        executed_on: executed_on.map(str::to_owned),
    });
}

/// Rebuilds executor state from journal records (see the replay rules
/// in [`crate::journal`]).
#[allow(clippy::too_many_arguments)]
fn replay_records(
    records: &[JournalRecord],
    journal: &Arc<Journal>,
    provider: &Arc<Provider>,
    scheduler: &Scheduler<QueuedJob>,
    cache: Option<&ResultCache>,
    observers: &ObserverSet,
    keyed: &mut HashMap<String, Job>,
    recovered: &mut Vec<Job>,
    next_id: &mut u64,
    report: &mut RecoveryReport,
) {
    let mut terminals: HashMap<u64, &JournalRecord> = HashMap::new();
    for record in records {
        *next_id = (*next_id).max(record.job_id() + 1);
        if matches!(record, JournalRecord::Terminal { .. }) {
            terminals.insert(record.job_id(), record);
        }
    }
    for record in records {
        let JournalRecord::Submitted { job_id, tenant, priority, backend, shots, key, qasm, trace } =
            record
        else {
            continue;
        };
        // Pre-tracing journals carry no trace id; mint a fresh one so
        // the recovered job still yields a well-formed trace. Journaled
        // ids are restored verbatim — recovery keeps traces stable.
        let trace_id = if *trace == 0 { qukit_obs::next_id() } else { *trace };
        let job = match terminals.get(job_id) {
            Some(JournalRecord::Terminal { status, error, counts, executed_on, .. }) => {
                // Exactly-once: a journaled terminal is final; the job
                // is reconstructed finished and never re-run.
                let job =
                    Job::new(*job_id, backend.clone(), *shots, tenant.clone(), trace_id, None);
                job.shared.update(|state| {
                    state.status = JobStatus::parse(status).unwrap_or(JobStatus::Error);
                    state.error = error.clone();
                    state.executed_on = executed_on.clone();
                    state.result = counts
                        .as_ref()
                        .map(|(clbits, pairs)| journal::counts_from_pairs(*clbits, pairs));
                });
                report.recovered_terminal += 1;
                job
            }
            _ => {
                // Non-terminal: re-enqueue under the original identity.
                let job = Job::new(
                    *job_id,
                    backend.clone(),
                    *shots,
                    tenant.clone(),
                    trace_id,
                    Some(Arc::clone(journal)),
                );
                match qukit_terra::qasm::parse(qasm) {
                    Ok(circuit) => {
                        let cache_key = cache.and_then(|_| {
                            provider
                                .get_backend(backend)
                                .ok()
                                .map(|b| cache::key(qasm, backend, b.fingerprint()))
                        });
                        // Bypass admission: the job was admitted before
                        // the crash; shedding it now would break
                        // exactly-once recovery.
                        scheduler.push_replayed(
                            tenant,
                            *priority,
                            QueuedJob {
                                job: job.clone(),
                                circuit,
                                cache_key,
                                submitted_at: Instant::now(),
                            },
                        );
                        observers.emit(&JobEvent::Enqueued {
                            job_id: *job_id,
                            backend: backend.clone(),
                        });
                        report.replayed += 1;
                    }
                    Err(e) => {
                        // A journaled circuit that no longer parses is a
                        // terminal error, not a lost job.
                        let msg = format!("journal replay: circuit unparsable: {e}");
                        observers.emit(&JobEvent::Failed {
                            job_id: *job_id,
                            attempts: 0,
                            error: msg.clone(),
                        });
                        job.shared.update(|state| {
                            state.error = Some(msg.clone());
                            state.status = JobStatus::Error;
                        });
                        journal_terminal(
                            &Some(Arc::clone(journal)),
                            *job_id,
                            JobStatus::Error,
                            Some(&msg),
                            None,
                            None,
                        );
                    }
                }
                job
            }
        };
        if let Some(key) = key {
            keyed.insert(key.clone(), job.clone());
        }
        recovered.push(job);
    }
}

/// Closes a job's trace: records the root `job` span (spanning submit
/// to terminal, with the root span id equal to the trace id) and the
/// per-tenant terminal metrics. Called exactly once per dequeued job,
/// on the worker that performed the terminal transition.
fn finish_job_trace(job: &Job, submitted_at: Instant, status: JobStatus) {
    let tenant = job.tenant();
    if status == JobStatus::Done {
        qukit_obs::counter_inc_with(
            "qukit_core_tenant_jobs_completed_total",
            &[("tenant", tenant)],
        );
        qukit_obs::observe_with(
            "qukit_core_tenant_job_seconds",
            &[("tenant", tenant)],
            submitted_at.elapsed().as_secs_f64(),
        );
    }
    if qukit_obs::enabled() {
        qukit_obs::record_span_at(
            "job",
            format!("job={} tenant={tenant} status={status}", job.id()),
            job.trace_id(),
            job.trace_id(),
            0,
            0,
            submitted_at,
            submitted_at.elapsed(),
        );
    }
}

/// What one execution attempt produced.
enum AttemptOutcome {
    Finished(Result<Counts>),
    TimedOut,
}

fn worker_loop(ctx: &Arc<WorkerContext>) {
    while let Some((_tenant, entry)) = ctx.scheduler.pop() {
        run_job(&entry, ctx);
    }
}

/// Executes one job: cache probe + attempts + backoff + timeout +
/// status transitions.
fn run_job(entry: &QueuedJob, ctx: &Arc<WorkerContext>) {
    let QueuedJob { job, circuit, cache_key, submitted_at } = entry;
    let job_id = job.id();
    // The worker continues the trace the submitter started: the queue
    // wait is recorded as a span spanning submit-to-dequeue, and the
    // root context is attached so every span below (attempts,
    // transpile passes, engine kernels) nests under this job's trace.
    let trace = qukit_obs::TraceContext::root_of(job.trace_id());
    if qukit_obs::enabled() {
        qukit_obs::record_span_at(
            "job.queued",
            format!("job={job_id} tenant={}", job.tenant()),
            trace.trace_id,
            qukit_obs::next_id(),
            trace.span_id,
            1,
            *submitted_at,
            submitted_at.elapsed(),
        );
    }
    let _trace_guard = trace.attach();
    let proceed = job.shared.update(|state| {
        if state.status == JobStatus::Cancelled || state.cancel_requested {
            state.status = JobStatus::Cancelled;
            false
        } else {
            state.status = JobStatus::Running;
            true
        }
    });
    if !proceed {
        // Emitted after the state write: a queued cancellation already
        // woke its waiters (and journaled its terminal record) from
        // `cancel()` itself, so the emit-before guarantee cannot apply
        // here anyway.
        ctx.observers.emit(&JobEvent::Cancelled { job_id, while_queued: true });
        finish_job_trace(job, *submitted_at, JobStatus::Cancelled);
        return;
    }
    ctx.observers.emit(&JobEvent::Started { job_id, backend: job.shared.backend_name.clone() });

    // Content-addressed cache probe: a hit re-samples the cached
    // distribution with a per-job deterministic seed and skips the
    // simulator entirely.
    if let (Some(cache), Some(key)) = (&ctx.cache, cache_key) {
        if let Some(hit) = cache.lookup(*key) {
            let counts = {
                // The hit span links to the trace that produced the
                // cached distribution (`producer_trace`) instead of
                // pretending this job executed anything.
                let _hit_span = qukit_obs::span!(
                    "job.cache_hit",
                    producer_trace = hit.producer_trace,
                    shots = job.shared.shots,
                );
                let seed = (*key as u64) ^ ((*key >> 64) as u64) ^ job_id;
                hit.distribution.sample(job.shared.shots, seed)
            };
            qukit_obs::counter_inc_with(
                "qukit_core_tenant_cache_hits_total",
                &[("tenant", job.tenant())],
            );
            let served = job.shared.backend_name.clone();
            ctx.observers.emit(&JobEvent::Completed {
                job_id,
                attempts: 0,
                executed_on: served.clone(),
                elapsed: submitted_at.elapsed(),
            });
            journal_terminal(
                &ctx.journal,
                job_id,
                JobStatus::Done,
                None,
                Some(&counts),
                Some(&served),
            );
            job.shared.update(|state| {
                state.from_cache = true;
                state.executed_on = Some(served);
                state.result = Some(counts);
                state.status = JobStatus::Done;
            });
            finish_job_trace(job, *submitted_at, JobStatus::Done);
            return;
        }
    }

    for attempt in 1..=ctx.retry.max_attempts {
        if attempt > 1 {
            let backoff = ctx.retry.backoff_before(attempt);
            job.shared.update(|state| state.backoffs.push(backoff));
            // Cancellation interrupts the backoff wait promptly (the
            // shutdown/cancel race fix) and is also honored at the
            // attempt boundary as before.
            let cancelled = job.shared.wait_for_cancel(backoff);
            if cancelled {
                ctx.observers.emit(&JobEvent::Cancelled { job_id, while_queued: false });
                journal_terminal(
                    &ctx.journal,
                    job_id,
                    JobStatus::Cancelled,
                    Some("cancelled between attempts"),
                    None,
                    None,
                );
                job.shared.update(|state| state.status = JobStatus::Cancelled);
                finish_job_trace(job, *submitted_at, JobStatus::Cancelled);
                return;
            }
        }
        job.shared.update(|state| state.attempts = attempt);
        let outcome = {
            let _attempt_span = qukit_obs::span!("job.attempt", job = job_id, attempt = attempt);
            run_attempt(job, circuit, &ctx.provider, ctx.retry.attempt_timeout)
        };
        match outcome {
            AttemptOutcome::Finished(Ok(counts)) => {
                let backend_name = job.shared.backend_name.clone();
                let served = ctx
                    .provider
                    .get_backend(&backend_name)
                    .ok()
                    .and_then(|b| b.executed_on())
                    .unwrap_or(backend_name);
                ctx.observers.emit(&JobEvent::Completed {
                    job_id,
                    attempts: attempt,
                    executed_on: served.clone(),
                    elapsed: submitted_at.elapsed(),
                });
                journal_terminal(
                    &ctx.journal,
                    job_id,
                    JobStatus::Done,
                    None,
                    Some(&counts),
                    Some(&served),
                );
                if let (Some(cache), Some(key)) = (&ctx.cache, cache_key) {
                    cache.insert(*key, CacheHit::from_run(&counts, job.trace_id()));
                }
                job.shared.update(|state| {
                    state.executed_on = Some(served);
                    state.result = Some(counts);
                    state.status = JobStatus::Done;
                });
                finish_job_trace(job, *submitted_at, JobStatus::Done);
                return;
            }
            AttemptOutcome::Finished(Err(e)) => {
                let retryable = e.is_retryable() && attempt < ctx.retry.max_attempts;
                if !retryable {
                    ctx.observers.emit(&JobEvent::Failed {
                        job_id,
                        attempts: attempt,
                        error: e.to_string(),
                    });
                    journal_terminal(
                        &ctx.journal,
                        job_id,
                        JobStatus::Error,
                        Some(&e.to_string()),
                        None,
                        None,
                    );
                    job.shared.update(|state| {
                        state.error = Some(e.to_string());
                        state.status = JobStatus::Error;
                    });
                    finish_job_trace(job, *submitted_at, JobStatus::Error);
                    return;
                }
                // Transient with attempts left: announce the retry (they
                // used to be silent) and loop for the next attempt.
                ctx.observers.emit(&JobEvent::Retrying {
                    job_id,
                    attempt,
                    backoff: ctx.retry.backoff_before(attempt + 1),
                    error: e.to_string(),
                });
            }
            AttemptOutcome::TimedOut => {
                // A hung attempt cannot be interrupted, only abandoned;
                // the paper's cloud queue reports such jobs as timed out
                // rather than silently re-running a possibly side-effecting
                // submission, and so do we.
                ctx.observers.emit(&JobEvent::TimedOut { job_id, attempt });
                let msg = format!(
                    "attempt {attempt} exceeded its {:?} budget",
                    ctx.retry.attempt_timeout.expect("timeout set when attempts time out")
                );
                journal_terminal(&ctx.journal, job_id, JobStatus::TimedOut, Some(&msg), None, None);
                job.shared.update(|state| {
                    state.error = Some(msg);
                    state.status = JobStatus::TimedOut;
                });
                finish_job_trace(job, *submitted_at, JobStatus::TimedOut);
                return;
            }
        }
    }
    unreachable!("final attempt either succeeds, errors, or times out");
}

/// Runs one attempt, enforcing the per-attempt timeout by running the
/// backend call on a helper thread and abandoning it on expiry.
fn run_attempt(
    job: &Job,
    circuit: &QuantumCircuit,
    provider: &Arc<Provider>,
    timeout: Option<Duration>,
) -> AttemptOutcome {
    let backend_name = job.shared.backend_name.clone();
    let shots = job.shared.shots;
    let Some(timeout) = timeout else {
        let result =
            provider.get_backend(&backend_name).and_then(|backend| backend.run(circuit, shots));
        return AttemptOutcome::Finished(result);
    };
    let (tx, rx) = std::sync::mpsc::sync_channel(1);
    let provider = Arc::clone(provider);
    let circuit = circuit.clone();
    // Trace contexts are per-thread: clone the worker's onto the helper
    // so backend spans still land in this job's trace after the hop.
    let trace = qukit_obs::TraceContext::current();
    std::thread::spawn(move || {
        let _trace_guard = trace.map(qukit_obs::TraceContext::attach);
        let result =
            provider.get_backend(&backend_name).and_then(|backend| backend.run(&circuit, shots));
        let _ = tx.send(result); // receiver may have given up: ignore
    });
    match rx.recv_timeout(timeout) {
        Ok(result) => AttemptOutcome::Finished(result),
        Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => {
            AttemptOutcome::TimedOut
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::QasmSimulatorBackend;
    use crate::fault::{FaultInjectingBackend, FaultMode};

    fn bell() -> QuantumCircuit {
        let mut circ = QuantumCircuit::new(2);
        circ.h(0).unwrap();
        circ.cx(0, 1).unwrap();
        circ
    }

    fn provider_with(backend: Box<dyn crate::backend::Backend>) -> Provider {
        let mut provider = Provider::new();
        provider.register(backend);
        provider
    }

    fn fast_retry(attempts: u32) -> RetryPolicy {
        RetryPolicy::new(attempts).with_base_backoff(Duration::from_millis(1)).with_jitter(0.0)
    }

    #[test]
    fn submit_runs_to_done_with_metadata() {
        let executor = JobExecutor::new(Provider::with_defaults());
        let job = executor.submit(&bell(), "qasm_simulator", 300).unwrap();
        let counts = job.result(Duration::from_secs(30)).unwrap();
        assert_eq!(counts.total(), 300);
        assert_eq!(job.status(), JobStatus::Done);
        assert!(job.status().is_terminal());
        assert_eq!(job.attempts(), 1);
        assert!(job.backoffs().is_empty());
        assert_eq!(job.executed_on().as_deref(), Some("qasm_simulator"));
        assert_eq!(job.backend_name(), "qasm_simulator");
        assert_eq!(job.shots(), 300);
        assert_eq!(job.tenant(), DEFAULT_TENANT);
        assert!(!job.served_from_cache());
    }

    #[test]
    fn job_ids_are_unique_and_increasing() {
        let executor = JobExecutor::new(Provider::with_defaults());
        let a = executor.submit(&bell(), "qasm_simulator", 10).unwrap();
        let b = executor.submit(&bell(), "qasm_simulator", 10).unwrap();
        assert!(b.id() > a.id());
    }

    #[test]
    fn unknown_backend_is_rejected_at_submit() {
        let executor = JobExecutor::new(Provider::with_defaults());
        let err = executor.submit(&bell(), "ibmqx99", 10).unwrap_err();
        assert!(err.to_string().contains("unknown backend"));
    }

    #[test]
    fn invalid_submissions_are_rejected_before_queueing() {
        let executor = JobExecutor::new(Provider::with_defaults());
        let err = executor.submit(&bell(), "qasm_simulator", 0).unwrap_err();
        assert!(matches!(err, QukitError::InvalidInput { .. }));
        let wide = QuantumCircuit::new(6);
        let err = executor.submit(&wide, "ibmqx4", 10).unwrap_err();
        assert!(matches!(err, QukitError::InvalidInput { .. }));
    }

    #[test]
    fn transient_failures_retry_with_recorded_backoff() {
        let flaky = FaultInjectingBackend::new(
            Box::new(QasmSimulatorBackend::new().with_seed(21)),
            FaultMode::FailTimes(2),
        );
        let config = ExecutorConfig {
            workers: 1,
            queue_capacity: 8,
            retry: fast_retry(3),
            ..Default::default()
        };
        let executor = JobExecutor::with_config(provider_with(Box::new(flaky)), config);
        let job = executor.submit(&bell(), "qasm_simulator", 200).unwrap();
        let counts = job.result(Duration::from_secs(30)).unwrap();
        assert_eq!(counts.total(), 200);
        assert_eq!(job.attempts(), 3, "two injected failures + one success");
        assert_eq!(job.backoffs(), executor.retry_policy().schedule()[..2].to_vec());
    }

    #[test]
    fn retries_exhausted_reports_error() {
        let dead = FaultInjectingBackend::new(
            Box::new(QasmSimulatorBackend::new()),
            FaultMode::AlwaysFail,
        );
        let config = ExecutorConfig {
            workers: 1,
            queue_capacity: 8,
            retry: fast_retry(3),
            ..Default::default()
        };
        let executor = JobExecutor::with_config(provider_with(Box::new(dead)), config);
        let job = executor.submit(&bell(), "qasm_simulator", 50).unwrap();
        let err = job.result(Duration::from_secs(30)).unwrap_err();
        assert_eq!(job.status(), JobStatus::Error);
        assert_eq!(job.attempts(), 3, "all attempts consumed");
        assert!(err.to_string().contains("injected fault"));
        assert!(job.error_message().unwrap().contains("injected fault"));
    }

    #[test]
    fn fatal_errors_are_not_retried() {
        // The stabilizer backend rejects non-Clifford gates with a fatal
        // (non-transient) error.
        let mut provider = Provider::new();
        provider.register(Box::new(crate::backend::StabilizerBackend::new()));
        let config = ExecutorConfig {
            workers: 1,
            queue_capacity: 8,
            retry: fast_retry(5),
            ..Default::default()
        };
        let executor = JobExecutor::with_config(provider, config);
        let mut t_circ = QuantumCircuit::new(1);
        t_circ.t(0).unwrap();
        let job = executor.submit(&t_circ, "stabilizer_simulator", 10).unwrap();
        assert!(job.result(Duration::from_secs(30)).is_err());
        assert_eq!(job.status(), JobStatus::Error);
        assert_eq!(job.attempts(), 1, "fatal error must not retry");
        assert!(job.backoffs().is_empty());
    }

    #[test]
    fn hung_attempt_times_out() {
        let slow = FaultInjectingBackend::new(
            Box::new(QasmSimulatorBackend::new()),
            FaultMode::Hang(Duration::from_millis(400)),
        );
        let retry = fast_retry(3).with_attempt_timeout(Duration::from_millis(20));
        let config = ExecutorConfig { workers: 1, queue_capacity: 8, retry, ..Default::default() };
        let executor = JobExecutor::with_config(provider_with(Box::new(slow)), config);
        let job = executor.submit(&bell(), "qasm_simulator", 10).unwrap();
        let err = job.result(Duration::from_secs(30)).unwrap_err();
        assert_eq!(job.status(), JobStatus::TimedOut);
        assert!(err.to_string().contains("timed out"));
        assert_eq!(job.attempts(), 1, "hung attempts are not retried");
    }

    #[test]
    fn queued_job_cancels_immediately_and_running_queue_drains() {
        // One worker pinned on a hanging job makes the queue state
        // deterministic: wait for RUNNING, then cancel a queued job.
        let slow = FaultInjectingBackend::new(
            Box::new(QasmSimulatorBackend::new()),
            FaultMode::Hang(Duration::from_millis(150)),
        );
        let config = ExecutorConfig {
            workers: 1,
            queue_capacity: 4,
            retry: RetryPolicy::none(),
            ..Default::default()
        };
        let executor = JobExecutor::with_config(provider_with(Box::new(slow)), config);
        let first = executor.submit(&bell(), "qasm_simulator", 10).unwrap();
        while first.status() == JobStatus::Queued {
            std::thread::sleep(Duration::from_millis(1));
        }
        let queued = executor.submit(&bell(), "qasm_simulator", 10).unwrap();
        assert_eq!(queued.status(), JobStatus::Queued);
        assert!(queued.cancel(), "queued job cancels immediately");
        assert_eq!(queued.status(), JobStatus::Cancelled);
        let err = queued.result(Duration::from_secs(5)).unwrap_err();
        assert!(err.to_string().contains("cancelled"));
        // The running job is unaffected.
        assert_eq!(first.result(Duration::from_secs(30)).unwrap().total(), 10);
    }

    #[test]
    fn cancel_interrupts_a_retry_backoff_promptly() {
        // Regression test for the shutdown/cancel race: a worker
        // sleeping out a long backoff used to finish the sleep (and
        // possibly re-attempt) before honoring the cancel. The condvar
        // wait must end as soon as cancel() signals.
        let dead = FaultInjectingBackend::new(
            Box::new(QasmSimulatorBackend::new()),
            FaultMode::AlwaysFail,
        );
        let backoff = Duration::from_secs(30);
        let retry = RetryPolicy::new(3)
            .with_base_backoff(backoff)
            .with_backoff_factor(1.0)
            .with_jitter(0.0);
        let config = ExecutorConfig { workers: 1, queue_capacity: 4, retry, ..Default::default() };
        let executor = JobExecutor::with_config(provider_with(Box::new(dead)), config);
        let job = executor.submit(&bell(), "qasm_simulator", 10).unwrap();
        // The first attempt fails instantly; wait until the worker has
        // entered the backoff (it records the backoff before waiting).
        while job.backoffs().is_empty() {
            std::thread::sleep(Duration::from_millis(1));
        }
        let t0 = Instant::now();
        assert!(!job.cancel(), "job is running, not queued");
        let err = job.result(Duration::from_secs(10)).unwrap_err();
        assert!(err.to_string().contains("cancelled"), "{err}");
        assert_eq!(job.status(), JobStatus::Cancelled);
        assert_eq!(job.attempts(), 1, "the backoff wait was interrupted, not re-attempted");
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "cancellation waited out the backoff: {:?}",
            t0.elapsed()
        );
        executor.shutdown();
    }

    #[test]
    fn full_queue_rejects_submissions() {
        let slow = FaultInjectingBackend::new(
            Box::new(QasmSimulatorBackend::new()),
            FaultMode::Hang(Duration::from_millis(150)),
        );
        let config = ExecutorConfig {
            workers: 1,
            queue_capacity: 1,
            retry: RetryPolicy::none(),
            ..Default::default()
        };
        let executor = JobExecutor::with_config(provider_with(Box::new(slow)), config);
        // Pin the worker, fill the single queue slot, then overflow it.
        let running = executor.submit(&bell(), "qasm_simulator", 10).unwrap();
        while running.status() == JobStatus::Queued {
            std::thread::sleep(Duration::from_millis(1));
        }
        let _queued = executor.submit(&bell(), "qasm_simulator", 10).unwrap();
        let err = executor.submit(&bell(), "qasm_simulator", 10).unwrap_err();
        assert!(matches!(err, QukitError::Job { .. }));
        assert!(err.to_string().contains("queue is full"));
    }

    #[test]
    fn tenant_over_depth_is_shed_with_a_typed_rejected_status() {
        let slow = FaultInjectingBackend::new(
            Box::new(QasmSimulatorBackend::new()),
            FaultMode::Hang(Duration::from_millis(150)),
        );
        let config = ExecutorConfig {
            workers: 1,
            queue_capacity: 16,
            retry: RetryPolicy::none(),
            ..Default::default()
        };
        let executor = JobExecutor::with_config(provider_with(Box::new(slow)), config);
        let session = executor.session_with("bursty", TenantConfig::default().with_max_pending(1));
        // Pin the worker so queue depths are deterministic.
        let running = session.submit(&bell(), "qasm_simulator", 10).unwrap();
        while running.status() == JobStatus::Queued {
            std::thread::sleep(Duration::from_millis(1));
        }
        let queued = session.submit(&bell(), "qasm_simulator", 10).unwrap();
        assert_eq!(queued.status(), JobStatus::Queued);
        let shed = session.submit(&bell(), "qasm_simulator", 10).unwrap();
        assert_eq!(shed.status(), JobStatus::Rejected);
        assert!(shed.status().is_terminal());
        let err = shed.result(Duration::from_secs(5)).unwrap_err();
        assert!(err.to_string().contains("rejected"), "{err}");
        assert!(shed.error_message().unwrap().contains("queue depth"));
        // Other tenants are unaffected by the shed tenant's bound.
        let other = executor.session("calm").submit(&bell(), "qasm_simulator", 10).unwrap();
        assert_ne!(other.status(), JobStatus::Rejected);
        assert_eq!(running.result(Duration::from_secs(30)).unwrap().total(), 10);
    }

    #[test]
    fn result_wait_deadline_is_reported_without_killing_the_job() {
        let slow = FaultInjectingBackend::new(
            Box::new(QasmSimulatorBackend::new()),
            FaultMode::Hang(Duration::from_millis(100)),
        );
        let config = ExecutorConfig {
            workers: 1,
            queue_capacity: 4,
            retry: RetryPolicy::none(),
            ..Default::default()
        };
        let executor = JobExecutor::with_config(provider_with(Box::new(slow)), config);
        let job = executor.submit(&bell(), "qasm_simulator", 10).unwrap();
        let err = job.result(Duration::from_millis(5)).unwrap_err();
        assert!(err.to_string().contains("after waiting"));
        // The typed variant distinguishes "wait gave up" from "job
        // failed", so callers can poll again.
        assert!(err.is_wait_timeout());
        assert!(matches!(err, QukitError::WaitTimeout { job_id, .. } if job_id == job.id()));
        // The job itself keeps running and finishes.
        assert_eq!(job.result(Duration::from_secs(30)).unwrap().total(), 10);
    }

    #[test]
    fn workers_execute_jobs_concurrently() {
        let slow = FaultInjectingBackend::new(
            Box::new(QasmSimulatorBackend::new()),
            FaultMode::Hang(Duration::from_millis(60)),
        );
        let config = ExecutorConfig {
            workers: 4,
            queue_capacity: 16,
            retry: RetryPolicy::none(),
            ..Default::default()
        };
        let executor = JobExecutor::with_config(provider_with(Box::new(slow)), config);
        let t0 = Instant::now();
        let jobs: Vec<Job> =
            (0..4).map(|_| executor.submit(&bell(), "qasm_simulator", 10).unwrap()).collect();
        for job in &jobs {
            assert_eq!(job.result(Duration::from_secs(30)).unwrap().total(), 10);
        }
        // Serial execution would need >= 240 ms; allow generous slack
        // while still proving overlap.
        assert!(
            t0.elapsed() < Duration::from_millis(200),
            "4 hanging jobs on 4 workers took {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn shutdown_drains_submitted_jobs() {
        let executor = JobExecutor::new(Provider::with_defaults());
        let jobs: Vec<Job> =
            (0..6).map(|_| executor.submit(&bell(), "qasm_simulator", 20).unwrap()).collect();
        executor.shutdown();
        for job in &jobs {
            assert_eq!(job.status(), JobStatus::Done);
        }
    }

    #[test]
    fn idempotency_key_returns_the_original_job() {
        let executor = JobExecutor::new(Provider::with_defaults());
        let session = executor.session("vqe");
        let first =
            session.submit_with(&bell(), "qasm_simulator", 100, Priority::Normal, Some("iter-1"));
        let first = first.unwrap();
        let dup =
            session.submit_with(&bell(), "qasm_simulator", 100, Priority::Normal, Some("iter-1"));
        let dup = dup.unwrap();
        assert_eq!(first.id(), dup.id(), "same key, same job");
        let fresh =
            session.submit_with(&bell(), "qasm_simulator", 100, Priority::Normal, Some("iter-2"));
        assert_ne!(first.id(), fresh.unwrap().id(), "different key, different job");
        assert_eq!(executor.job_for_key("iter-1").unwrap().id(), first.id());
        assert!(executor.job_for_key("iter-99").is_none());
    }

    #[test]
    fn cache_hits_resample_instead_of_resimulating() {
        let config = ExecutorConfig {
            workers: 1,
            queue_capacity: 16,
            retry: RetryPolicy::none(),
            cache: Some(CacheConfig::default()),
            ..Default::default()
        };
        let provider = provider_with(Box::new(QasmSimulatorBackend::new().with_seed(5)));
        let executor = JobExecutor::with_config(provider, config);
        let first = executor.submit(&bell(), "qasm_simulator", 400).unwrap();
        assert_eq!(first.result(Duration::from_secs(30)).unwrap().total(), 400);
        assert!(!first.served_from_cache(), "first run fills the cache");
        let second = executor.submit(&bell(), "qasm_simulator", 250).unwrap();
        let counts = second.result(Duration::from_secs(30)).unwrap();
        assert!(second.served_from_cache(), "repeat payload hits the cache");
        assert_eq!(counts.total(), 250, "a hit serves any shot count");
        assert_eq!(second.attempts(), 0, "no backend attempt for a hit");
        assert_eq!(second.executed_on().as_deref(), Some("qasm_simulator"));
        // A different circuit misses.
        let mut ghz3 = QuantumCircuit::new(3);
        ghz3.h(0).unwrap();
        ghz3.cx(0, 1).unwrap();
        ghz3.cx(1, 2).unwrap();
        let third = executor.submit(&ghz3, "qasm_simulator", 100).unwrap();
        third.result(Duration::from_secs(30)).unwrap();
        assert!(!third.served_from_cache());
    }

    /// Records every event so tests can assert on the full lifecycle.
    #[derive(Default)]
    struct RecordingObserver {
        events: Mutex<Vec<JobEvent>>,
    }

    impl JobObserver for RecordingObserver {
        fn on_event(&self, event: &JobEvent) {
            self.events.lock().unwrap().push(event.clone());
        }
    }

    #[test]
    fn observers_see_the_full_lifecycle_including_retries() {
        let flaky = FaultInjectingBackend::new(
            Box::new(QasmSimulatorBackend::new().with_seed(7)),
            FaultMode::FailTimes(1),
        );
        let recorder = Arc::new(RecordingObserver::default());
        let observers = ObserverSet::none().with(recorder.clone() as Arc<dyn JobObserver>);
        let config = ExecutorConfig {
            workers: 1,
            queue_capacity: 8,
            retry: fast_retry(3),
            observers,
            ..Default::default()
        };
        let executor = JobExecutor::with_config(provider_with(Box::new(flaky)), config);
        let job = executor.submit(&bell(), "qasm_simulator", 100).unwrap();
        job.result(Duration::from_secs(30)).unwrap();
        let events = recorder.events.lock().unwrap().clone();
        // `Enqueued` fires on the submitting thread and may interleave
        // with worker-side events; assert presence plus worker ordering.
        assert!(
            events.iter().any(|e| matches!(e, JobEvent::Enqueued { .. })),
            "missing Enqueued in {events:?}"
        );
        let position = |pred: fn(&JobEvent) -> bool| events.iter().position(pred).unwrap();
        let started = position(|e| matches!(e, JobEvent::Started { .. }));
        let retried = position(|e| matches!(e, JobEvent::Retrying { .. }));
        let completed = position(|e| matches!(e, JobEvent::Completed { .. }));
        assert!(started < retried && retried < completed, "worker order in {events:?}");
        match &events[retried] {
            JobEvent::Retrying { attempt, error, .. } => {
                assert_eq!(*attempt, 1);
                assert!(error.contains("injected fault"), "retry carries the error: {error}");
            }
            other => panic!("expected Retrying, got {other:?}"),
        }
        match &events[completed] {
            JobEvent::Completed { attempts, executed_on, .. } => {
                assert_eq!(*attempts, 2);
                assert_eq!(executed_on, "qasm_simulator");
            }
            other => panic!("expected Completed, got {other:?}"),
        }
        assert!(events.iter().all(|e| e.job_id() == job.id()));
    }

    #[test]
    fn observers_see_queued_cancellation() {
        let slow = FaultInjectingBackend::new(
            Box::new(QasmSimulatorBackend::new()),
            FaultMode::Hang(Duration::from_millis(100)),
        );
        let recorder = Arc::new(RecordingObserver::default());
        let observers = ObserverSet::none().with(recorder.clone() as Arc<dyn JobObserver>);
        let config = ExecutorConfig {
            workers: 1,
            queue_capacity: 4,
            retry: RetryPolicy::none(),
            observers,
            ..Default::default()
        };
        let executor = JobExecutor::with_config(provider_with(Box::new(slow)), config);
        let first = executor.submit(&bell(), "qasm_simulator", 10).unwrap();
        while first.status() == JobStatus::Queued {
            std::thread::sleep(Duration::from_millis(1));
        }
        let queued = executor.submit(&bell(), "qasm_simulator", 10).unwrap();
        assert!(queued.cancel());
        first.result(Duration::from_secs(30)).unwrap();
        executor.shutdown();
        let events = recorder.events.lock().unwrap().clone();
        let cancelled: Vec<&JobEvent> =
            events.iter().filter(|e| matches!(e, JobEvent::Cancelled { .. })).collect();
        assert_eq!(cancelled.len(), 1);
        assert!(
            matches!(cancelled[0], JobEvent::Cancelled { while_queued: true, .. }),
            "cancellation happened before the job started"
        );
    }

    #[test]
    fn status_display_matches_cloud_vocabulary() {
        assert_eq!(JobStatus::Queued.to_string(), "QUEUED");
        assert_eq!(JobStatus::TimedOut.to_string(), "TIMED_OUT");
        assert_eq!(JobStatus::Rejected.to_string(), "REJECTED");
        assert!(!JobStatus::Running.is_terminal());
        assert!(JobStatus::Cancelled.is_terminal());
        assert!(JobStatus::Rejected.is_terminal());
        for status in [
            JobStatus::Queued,
            JobStatus::Running,
            JobStatus::Done,
            JobStatus::Error,
            JobStatus::Cancelled,
            JobStatus::TimedOut,
            JobStatus::Rejected,
        ] {
            assert_eq!(JobStatus::parse(&status.to_string()), Some(status));
        }
        assert_eq!(JobStatus::parse("LOST"), None);
    }
}
