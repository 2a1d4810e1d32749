//! `svc_open`: the multi-tenant job service under an open loop.
//!
//! One generator thread submits on a fixed schedule through
//! `Session::submit_with` for four tenants; `nproc − 1` executor workers
//! serve the jobs with a journal in a fresh directory and the result
//! cache on. Latency is timed from when each job was *due*, so a stall
//! also charges the jobs queued behind it. In the traced run a stepped
//! ramp also finds the highest offered rate that meets
//! [`LATENCY_LIMIT_MS`] with no growing backlog.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use qukit::job::{ExecutorConfig, Job, JobEvent, JobExecutor, JobObserver, ObserverSet};
use qukit::provider::Provider;
use qukit::{CacheConfig, Counts, Priority, Session, TenantConfig};

use crate::gen::{self, Input, Rng};
use crate::report::{Ctx, Report, SHOTS};
use crate::trace::Recorder;
use crate::{check, compiled_totals, enable_library_metrics, host, mega_rate, stats};

/// Offered rate of the fixed-rate phase, jobs per second (also stated in
/// `BENCHMARK.json`): about a quarter of what one worker sustains on the
/// reference host (5–7k jobs/s). At 60% the latency of a shared 2-CPU host
/// swung threefold from run to run with the host's own load.
pub const FIXED_RATE: f64 = 1500.0;
/// The latency limit on the tail percentile.
pub const LATENCY_LIMIT_MS: f64 = 20.0;
/// A run whose generator ran later than this at its tail is invalid.
pub const GEN_LAG_LIMIT_MS: f64 = LATENCY_LIMIT_MS;
/// Share of submissions that repeat an earlier payload.
const REPEAT_SHARE: f64 = 0.3;
/// Repeats are drawn from this many most recent distinct payloads.
const REPEAT_WINDOW: usize = 128;
/// Tenant fair-share weights.
const TENANT_WEIGHTS: [u32; 4] = [1, 2, 3, 2];
/// Global queue slots: seconds of arrivals at the fixed rate.
const QUEUE_CAPACITY: usize = 4096;
/// First ramp step, as a multiple of [`FIXED_RATE`].
const RAMP_START: f64 = 2.0;
/// Rate growth from one ramp step to the next (steps 8% apart).
const RAMP_GROWTH: f64 = 1.08;
/// Length of one ramp step.
const RAMP_STEP: Duration = Duration::from_millis(300);
/// Jobs submitted but not yet started that count as a growing backlog.
const RAMP_BACKLOG: usize = 48;
/// The generator spins, rather than sleeps, this close to a due time.
const SPIN: Duration = Duration::from_micros(80);
/// One finished job in this many is checked against `terra::reference`.
const SAMPLE_EVERY: u64 = 64;

/// Per-job lifecycle as the ledger saw it.
#[derive(Debug, Clone, Copy, Default)]
struct Life {
    started: Option<Instant>,
    done: Option<Instant>,
    terminals: u32,
    completed: bool,
    from_cache: bool,
    shed: bool,
}

/// The benchmark's job ledger: a [`JobObserver`] that stamps every
/// lifecycle event of every job.
#[derive(Default)]
struct Ledger {
    jobs: Mutex<Vec<Life>>,
    started: AtomicUsize,
}

impl Ledger {
    fn with<T>(&self, id: u64, f: impl FnOnce(&mut Life) -> T) -> T {
        let mut jobs = self.jobs.lock().expect("ledger lock");
        let i = id as usize;
        if jobs.len() <= i {
            jobs.resize(i + 4096, Life::default());
        }
        f(&mut jobs[i])
    }
}

impl JobObserver for Ledger {
    fn on_event(&self, event: &JobEvent) {
        let now = Instant::now();
        match event {
            JobEvent::Started { job_id, .. } => {
                self.started.fetch_add(1, Ordering::Relaxed);
                self.with(*job_id, |l| l.started = Some(now));
            }
            JobEvent::Completed { job_id, attempts, .. } => self.with(*job_id, |l| {
                l.done = Some(now);
                l.terminals += 1;
                l.completed = true;
                // A cache hit completes without running an attempt.
                l.from_cache = *attempts == 0;
            }),
            JobEvent::Rejected { job_id, .. } => self.with(*job_id, |l| {
                l.done = Some(now);
                l.terminals += 1;
                l.shed = true;
            }),
            JobEvent::Failed { job_id, .. }
            | JobEvent::TimedOut { job_id, .. }
            | JobEvent::Cancelled { job_id, .. } => self.with(*job_id, |l| {
                l.done = Some(now);
                l.terminals += 1;
            }),
            JobEvent::Enqueued { .. } | JobEvent::Retrying { .. } => {}
        }
    }
}

/// One planned submission.
#[derive(Debug, Clone, Copy)]
struct Planned {
    payload: usize,
    tenant: usize,
    priority: Priority,
}

/// Distinct payloads in the pool. Fresh submissions walk the pool in
/// order, so a payload comes back only after [`POOL`] other fresh ones —
/// long after the 256-entry result cache has evicted it — and the plan's
/// memory stays the same whatever the run length.
const POOL: usize = 2048;

/// The seeded submission plan over a payload pool: [`REPEAT_SHARE`] of the
/// submissions repeat one of the [`REPEAT_WINDOW`] most recent payloads.
struct Plan {
    payloads: Vec<Input>,
    jobs: Vec<Planned>,
}

impl Plan {
    fn new(rng: &mut Rng, payloads: Vec<Input>, len: usize) -> Self {
        let mut recent: VecDeque<usize> = VecDeque::with_capacity(REPEAT_WINDOW);
        let mut fresh = 0;
        let mut jobs = Vec::with_capacity(len);
        for _ in 0..len {
            let payload = if !recent.is_empty() && rng.unit() < REPEAT_SHARE {
                recent[rng.below(recent.len())]
            } else {
                let payload = fresh % payloads.len();
                fresh += 1;
                if recent.len() == REPEAT_WINDOW {
                    recent.pop_front();
                }
                recent.push_back(payload);
                payload
            };
            let priority = match rng.below(5) {
                0 => Priority::High,
                1 => Priority::Low,
                _ => Priority::Normal,
            };
            jobs.push(Planned { payload, tenant: rng.below(TENANT_WEIGHTS.len()), priority });
        }
        Self { payloads, jobs }
    }
}

/// A fresh service: provider, executor with journal and cache, ledger.
struct Service {
    executor: Option<JobExecutor>,
    ledger: Arc<Ledger>,
    journal: PathBuf,
}

impl Service {
    fn start(dir: &Path) -> Self {
        let _ = std::fs::remove_dir_all(dir);
        let ledger = Arc::new(Ledger::default());
        let config = ExecutorConfig {
            workers: host::service_workers(),
            queue_capacity: QUEUE_CAPACITY,
            observers: ObserverSet::metrics().with(ledger.clone()),
            journal_dir: Some(dir.to_owned()),
            cache: Some(CacheConfig::default()),
            ..ExecutorConfig::default()
        };
        let executor = JobExecutor::try_with_config(Provider::with_defaults(), config)
            .expect("journal directory inside the checkout");
        Self { executor: Some(executor), ledger, journal: dir.to_owned() }
    }

    fn sessions(&self) -> Vec<Session<'_>> {
        let executor = self.executor.as_ref().expect("running service");
        TENANT_WEIGHTS
            .iter()
            .enumerate()
            .map(|(t, &w)| {
                executor.session_with(&format!("tenant{t}"), TenantConfig::default().with_weight(w))
            })
            .collect()
    }

    fn journal_bytes(&self) -> u64 {
        std::fs::metadata(self.journal.join(qukit::journal::JOURNAL_FILE)).map_or(0, |m| m.len())
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        // Shut the executor down (joining its workers) before removing
        // the journal it writes to.
        drop(self.executor.take());
        let _ = std::fs::remove_dir_all(&self.journal);
    }
}

/// One submission as the generator saw it.
struct Sent {
    id: u64,
    due: Instant,
    sent: Instant,
    returned: Instant,
    payload: usize,
}

/// What one open-loop phase produced.
#[derive(Default)]
struct Phase {
    sent: Vec<Sent>,
    /// Submissions refused with an error (queue full or closed).
    refused: u64,
    /// Whether the phase stopped on a growing backlog.
    backlog: bool,
    wrong: Vec<String>,
    /// Seeded sample of (payload, counts) for the reference check.
    sampled: Vec<(usize, Counts)>,
}

/// Drives one open-loop phase: submits `jobs` at `rate` per second until
/// `budget` has passed, then waits for every job. With `backlog_limit`,
/// the phase stops early once more jobs wait to start than the limit.
fn open_loop(
    service: &Service,
    plan: &Plan,
    jobs: &[Planned],
    rate: f64,
    budget: Duration,
    backlog_limit: Option<usize>,
    sample_rng: &mut Rng,
) -> Phase {
    let sessions = service.sessions();
    let mut phase = Phase::default();
    let mut pending: VecDeque<(Job, usize)> = VecDeque::new();
    let started_before = service.ledger.started.load(Ordering::Relaxed);
    let origin = Instant::now();
    for (i, planned) in jobs.iter().enumerate() {
        let offset = Duration::from_secs_f64(i as f64 / rate);
        if offset >= budget {
            break;
        }
        let due = origin + offset;
        // Wait for the due time: retire finished jobs while there is slack,
        // sleep through the rest but the last stretch, which is spun so the
        // sleep's wake-up jitter does not become generator lag.
        loop {
            let now = Instant::now();
            if now >= due {
                break;
            }
            match pending.front() {
                Some((job, _)) if job.status().is_terminal() => {
                    let (job, payload) = pending.pop_front().expect("front exists");
                    retire(&job, payload, sample_rng, &mut phase);
                }
                _ if due - now > SPIN => std::thread::sleep(due - now - SPIN),
                _ => std::hint::spin_loop(),
            }
        }
        if let Some(limit) = backlog_limit {
            let started = service.ledger.started.load(Ordering::Relaxed) - started_before;
            if phase.sent.len().saturating_sub(started) > limit {
                phase.backlog = true;
                break;
            }
        }
        let sent = Instant::now();
        let result = sessions[planned.tenant].submit_with(
            &plan.payloads[planned.payload].circuit,
            "qasm_simulator",
            SHOTS,
            planned.priority,
            None,
        );
        let returned = Instant::now();
        match result {
            Ok(job) => {
                let id = job.id();
                phase.sent.push(Sent { id, due, sent, returned, payload: planned.payload });
                pending.push_back((job, planned.payload));
            }
            Err(_) => phase.refused += 1,
        }
    }
    for (job, payload) in pending.drain(..) {
        let _ = job.result(Duration::from_secs(120));
        retire(&job, payload, sample_rng, &mut phase);
    }
    phase
}

/// Checks a finished job's shot total, keeps a seeded sample of outputs
/// for the reference check, and drops the handle.
fn retire(job: &Job, payload: usize, rng: &mut Rng, phase: &mut Phase) {
    // Failed and shed jobs are counted from the ledger.
    if let Ok(counts) = job.result(Duration::ZERO) {
        if let Err(e) = check::shots_match(&counts, SHOTS) {
            phase.wrong.push(format!("job {}: {e}", job.id()));
        }
        if rng.next_u64().is_multiple_of(SAMPLE_EVERY) {
            phase.sampled.push((payload, counts));
        }
    }
}

/// Per-job numbers of a finished phase, from the generator's records and
/// the ledger.
#[derive(Default)]
struct Timings {
    /// Due → done, ms, completed jobs.
    latency_ms: Vec<f64>,
    /// Sent − due, ms.
    lag_ms: Vec<f64>,
    /// Time inside `submit_with`, µs.
    submit_us: Vec<f64>,
    /// Submit → started, ms.
    queue_ms: Vec<f64>,
    /// Started → completed, ms, cache misses and hits.
    exec_miss_ms: Vec<f64>,
    exec_hit_ms: Vec<f64>,
    /// Gates·2^n per second of execution, M/s, cache misses below and
    /// from 6 qubits.
    light: Vec<f64>,
    heavy: Vec<f64>,
    completed: u64,
    failed: u64,
    shed: u64,
    /// Jobs without exactly one terminal event.
    terminals: Vec<u32>,
    busy_s: f64,
    wall_s: f64,
}

fn timings(service: &Service, plan: &Plan, phase: &Phase, rec: Option<&Recorder>) -> Timings {
    let mut t = Timings::default();
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let jobs = service.ledger.jobs.lock().expect("ledger lock");
    let mut last_done: Option<Instant> = None;
    for s in &phase.sent {
        let life = jobs.get(s.id as usize).copied().unwrap_or_default();
        t.terminals.push(life.terminals);
        t.lag_ms.push(ms(s.sent.saturating_duration_since(s.due)));
        t.submit_us.push(ms(s.returned - s.sent) * 1e3);
        if life.shed {
            t.shed += 1;
            continue;
        }
        let (Some(started), Some(done), true) = (life.started, life.done, life.completed) else {
            t.failed += 1;
            continue;
        };
        t.completed += 1;
        last_done = Some(last_done.map_or(done, |d| d.max(done)));
        t.latency_ms.push(ms(done.saturating_duration_since(s.due)));
        t.queue_ms.push(ms(started.saturating_duration_since(s.sent)));
        let exec = done.saturating_duration_since(started);
        t.busy_s += exec.as_secs_f64();
        if life.from_cache {
            t.exec_hit_ms.push(ms(exec));
        } else {
            t.exec_miss_ms.push(ms(exec));
            let input = &plan.payloads[s.payload];
            let work = input.gates() as f64 * (1u64 << input.qubits()) as f64;
            let class = if input.qubits() >= 6 { &mut t.heavy } else { &mut t.light };
            class.push(mega_rate(work, exec.as_secs_f64()));
        }
        if let Some(rec) = rec {
            let exec_name = if life.from_cache { "core.exec_hit" } else { "core.exec_miss" };
            rec.record("core.submit", s.id, s.sent, s.returned);
            rec.record("core.queue_wait", s.id, s.sent, started);
            rec.record(exec_name, s.id, started, done);
        }
    }
    if let (Some(first), Some(last)) = (phase.sent.first(), last_done) {
        t.wall_s = last.saturating_duration_since(first.due).as_secs_f64();
    }
    t
}

/// Output checks of a phase: ledger exactly-once, shot totals (done while
/// retiring), and the seeded sample against `terra::reference`.
fn check_phase(report: &mut Report, plan: &Plan, phase: &Phase, t: &Timings, label: &str) {
    report.check(&format!("{label}: every job terminates once"), check::exactly_once(&t.terminals));
    for e in &phase.wrong {
        report.fail_check(format!("{label}: {e}"));
    }
    for (payload, counts) in &phase.sampled {
        let input = &plan.payloads[*payload];
        let probs = check::reference_probs(input);
        report.check(
            &format!("{label}: payload {payload} vs reference"),
            check::counts_match(counts, &probs, input.qubits()),
        );
    }
    report.attempted += phase.sent.len() as u64 + phase.refused;
    report.failed += t.failed + t.shed + phase.refused;
}

/// Runs the fixed-rate phase.
fn fixed_phase(service: &Service, plan: &Plan, budget: Duration, rng: &mut Rng) -> Phase {
    open_loop(service, plan, &plan.jobs, FIXED_RATE, budget, None, rng)
}

/// The workload. Returns `Err` when the run is invalid (the generator
/// itself fell behind).
pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let mut rng = Rng::stream(ctx.seed, "svc_open");
    let mut sample_rng = Rng::stream(ctx.seed, "svc_open.sample");
    let dir = |name: &str| ctx.out_dir.join(format!("journal-{}-{name}", std::process::id()));
    let fixed_budget = ctx.budget(if ctx.trace { 0.25 } else { 0.85 });
    let pool: Vec<Input> = (0..POOL).map(|_| gen::svc_payload(&mut rng)).collect();
    let fixed_len = (FIXED_RATE * fixed_budget.as_secs_f64()).ceil() as usize + 1;
    let plan = Plan::new(&mut rng, pool, fixed_len);
    qukit::terra::transpiler::cache::global().clear();

    let service = report.measure_setup(|rep| {
        let service = Service::start(&dir(&format!("setup{rep}")));
        drop(service.sessions());
        service
    });
    let phase = fixed_phase(&service, &plan, fixed_budget, &mut sample_rng);
    let t = timings(&service, &plan, &phase, None);
    check_phase(report, &plan, &phase, &t, "fixed");
    drop(service);
    let lag = stats::windowed_tail(&t.lag_ms, stats::TAIL_WINDOW).map_or(0.0, |x| x.value);

    if !ctx.trace {
        // `p50_ms` is the time a job spends in the executor; the latency
        // from the due time adds the hand-off from the generator to a
        // sleeping worker, which on a shared host follows the host's load.
        let exec_ms = [t.exec_miss_ms.as_slice(), t.exec_hit_ms.as_slice()].concat();
        report.set_median("p50_ms", "ms", exec_ms);
        report.set_median("due_p50_ms", "ms", t.latency_ms.clone());
        report.set_tail("tail_ms", "ms", t.latency_ms.clone(), stats::TAIL_WINDOW);
        report.set_geomean("light_work_rate", "M/s", t.light.clone());
        report.set_geomean("heavy_work_rate", "M/s", t.heavy.clone());
        // Delivered throughput at the offered rate: a saturated service
        // completes fewer jobs per second than it is offered.
        report.set("jobs_per_s", "1/s", t.completed as f64 / t.wall_s.max(1e-9), vec![]);
        let qasm = Provider::with_defaults();
        let (cx, depth) = compiled_totals(
            qasm.get_backend("qasm_simulator").expect("default backend"),
            plan.payloads.iter(),
        );
        report.set("cx_out", "count", cx, vec![]);
        report.set("depth_out", "count", depth, vec![]);
        report.note(format!(
            "svc_open fixed phase: {} jobs at {FIXED_RATE} jobs/s, {} completed, {} hits, generator lag tail {lag:.3} ms",
            phase.sent.len(),
            t.completed,
            t.exec_hit_ms.len()
        ));
    } else {
        let ramp_budget = ctx.budget(0.35);
        // Enough submissions for every step of the ramp at its top rate.
        let steps = (ramp_budget.as_secs_f64() / RAMP_STEP.as_secs_f64()).ceil() as i32;
        let len = RAMP_START * FIXED_RATE * RAMP_GROWTH.powi(steps) * ramp_budget.as_secs_f64();
        let ramp_plan = Plan::new(&mut rng, plan.payloads.clone(), len.ceil() as usize);
        ramp(report, &ramp_plan, ramp_budget, &dir("ramp"), &mut sample_rng);
        traced(ctx, report, &plan, fixed_budget, &dir("traced"), &t, &mut sample_rng);
    }
    if lag > GEN_LAG_LIMIT_MS {
        return Err(format!(
            "generator lag tail {lag:.3} ms exceeds {GEN_LAG_LIMIT_MS} ms: the host could not keep the schedule"
        ));
    }
    Ok(())
}

/// The stepped ramp: offered rates 8% apart, each step a short fixed-rate
/// phase from an empty queue. A step passes when its tail meets the
/// latency limit, its backlog never grew past [`RAMP_BACKLOG`], and no job
/// failed. A failed step is run once more, so one stall of the host does
/// not end the ramp; two failures do. `core.max_sustained_jps` is the rate
/// of the last passing step. It follows the host's momentary speed too
/// closely to bound, so it is a per-layer number of the traced run.
fn ramp(report: &mut Report, plan: &Plan, budget: Duration, dir: &Path, rng: &mut Rng) {
    let service = Service::start(dir);
    let start = Instant::now();
    let (mut next, mut step, mut retried) = (0, 0, false);
    let mut best = 0.0;
    let mut end = "the budget ran out first, so this is a lower bound".to_owned();
    while start.elapsed() + RAMP_STEP <= budget {
        let rate = RAMP_START * FIXED_RATE * RAMP_GROWTH.powi(step);
        let jobs = &plan.jobs[next.min(plan.jobs.len())..];
        let phase = open_loop(&service, plan, jobs, rate, RAMP_STEP, Some(RAMP_BACKLOG), rng);
        next += phase.sent.len() + phase.refused as usize;
        let t = timings(&service, plan, &phase, None);
        check_phase(report, plan, &phase, &t, "ramp");
        let tail = stats::windowed_tail(&t.latency_ms, stats::TAIL_WINDOW).map(|x| x.value);
        match tail {
            Some(tail) if tail <= LATENCY_LIMIT_MS && !phase.backlog && t.failed + t.shed == 0 => {
                best = rate;
                step += 1;
                retried = false;
            }
            _ if !retried => retried = true,
            _ => {
                end = format!(
                    "{rate:.0} jobs/s failed twice (tail {tail:?} ms, growing backlog: {})",
                    phase.backlog
                );
                break;
            }
        }
    }
    report.set("core.max_sustained_jps", "1/s", best, vec![]);
    report.note(format!("svc_open ramp: max sustainable {best:.1} jobs/s; {end}"));
}

/// The traced run: an untraced fixed phase (already measured in `base`)
/// against a traced one with library metrics on, per-layer numbers, the
/// stage table and counter-versus-ledger findings.
fn traced(
    ctx: &Ctx,
    report: &mut Report,
    plan: &Plan,
    budget: Duration,
    dir: &Path,
    base: &Timings,
    rng: &mut Rng,
) {
    enable_library_metrics();
    let service = Service::start(dir);
    let phase = fixed_phase(&service, plan, budget, rng);
    let t = timings(&service, plan, &phase, Some(&ctx.rec));
    check_phase(report, plan, &phase, &t, "traced");
    let snapshot = qukit_obs::registry().snapshot();
    let counter = |name: &str| snapshot.counters.get(name).copied().unwrap_or(0);

    report.set_median("core.submit_us_p50", "us", t.submit_us.clone());
    report.set_median("core.queue_wait_ms_p50", "ms", t.queue_ms.clone());
    report.set_tail("core.queue_wait_ms_tail", "ms", t.queue_ms.clone(), stats::TAIL_WINDOW);
    report.set_median("core.exec_miss_ms_p50", "ms", t.exec_miss_ms.clone());
    report.set_median("core.exec_hit_ms_p50", "ms", t.exec_hit_ms.clone());
    let finished = t.completed.max(1) as f64;
    report.set("core.cache_hit_ratio", "ratio", t.exec_hit_ms.len() as f64 / finished, vec![]);
    let attempted = phase.sent.len().max(1) as f64;
    report.set("core.shed_ratio", "ratio", t.shed as f64 / attempted, vec![]);
    let workers = host::service_workers() as f64;
    report.set("core.worker_busy_frac", "ratio", t.busy_s / (workers * t.wall_s.max(1e-9)), vec![]);
    report.set(
        "core.journal_bytes_per_job",
        "B",
        service.journal_bytes() as f64 / attempted,
        vec![],
    );
    report.set_tail("bench.gen_lag_ms_tail", "ms", t.lag_ms.clone(), stats::TAIL_WINDOW);
    report.set_overhead(&base.latency_ms, t.latency_ms.clone());

    report.note("svc_open stage table (ms; submit in µs)".to_owned());
    report.note(format!(
        "{:<12} {:>8} {:>10} {:>10} {:>10} {:>10}",
        "stage", "n", "p50", "q1", "q3", "tail"
    ));
    for (stage, samples) in [
        ("submit_us", &t.submit_us),
        ("queue_wait", &t.queue_ms),
        ("exec_miss", &t.exec_miss_ms),
        ("exec_hit", &t.exec_hit_ms),
    ] {
        let [q1, q2, q3] = stats::quartiles(samples);
        let tail = stats::windowed_tail(samples, stats::TAIL_WINDOW).map_or(f64::NAN, |x| x.value);
        report.note(format!(
            "{stage:<12} {:>8} {q2:>10.4} {q1:>10.4} {q3:>10.4} {tail:>10.4}",
            samples.len()
        ));
    }

    // The library's own counters, read as counts, against the ledger.
    let tenant_submitted: u64 = snapshot
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("qukit_core_tenant_jobs_submitted_total{"))
        .map(|(_, v)| v)
        .sum();
    let hits = t.exec_hit_ms.len() as u64;
    let ledger_submitted = phase.sent.len() as u64;
    for (name, counted, ledger) in [
        (
            "qukit_core_jobs_submitted_total",
            counter("qukit_core_jobs_submitted_total"),
            ledger_submitted - t.shed,
        ),
        (
            "qukit_core_tenant_jobs_submitted_total (sum over tenants)",
            tenant_submitted,
            ledger_submitted,
        ),
        ("qukit_core_jobs_shed_total", counter("qukit_core_jobs_shed_total"), t.shed),
        (
            "qukit_core_jobs_completed_total",
            counter("qukit_core_jobs_completed_total"),
            t.completed,
        ),
        ("qukit_core_cache_hits_total", counter("qukit_core_cache_hits_total"), hits),
        (
            "qukit_core_cache_misses_total",
            counter("qukit_core_cache_misses_total"),
            t.completed - hits,
        ),
        ("qukit_aer_qasm_runs_total", counter("qukit_aer_qasm_runs_total"), t.completed - hits),
    ] {
        if counted != ledger {
            report.note(format!(
                "finding: {name} = {counted}, the benchmark's ledger counts {ledger}"
            ));
        }
    }
    drop(service);
}
