//! # qukit-cli
//!
//! The command-line driver of the **qukit** toolchain — the shell
//! equivalent of the paper's Section IV Python walkthrough:
//!
//! ```text
//! qukit backends                         # list available backends
//! qukit stats    circuit.qasm            # gate counts / depth / width
//! qukit draw     circuit.qasm            # ASCII diagram (Fig. 1b style)
//! qukit run      circuit.qasm --backend ibmqx4 --shots 1024 --seed 7
//! qukit transpile circuit.qasm --device ibmqx4 --router sabre --opt-level 3 --emit
//! qukit jobs     circuit.qasm --inject-fail 2 --retries 3 --seed 7
//! ```
//!
//! `jobs` drives the fault-tolerant job service: it submits through the
//! queued [`JobExecutor`](qukit::job::JobExecutor), optionally wrapping
//! the target backend in a seeded
//! [`FaultInjectingBackend`](qukit::fault::FaultInjectingBackend) or a
//! [`FallbackChain`](qukit::fault::FallbackChain), and reports the job
//! lifecycle (status, attempts, backoffs, which backend served it).
//!
//! All command logic lives in [`run_cli`] so it is directly testable.

use qukit::execute::execute;
use qukit::fault::{FallbackChain, FaultInjectingBackend, FaultMode};
use qukit::job::{ExecutorConfig, JobExecutor};
use qukit::provider::Provider;
use qukit::retry::RetryPolicy;
use qukit::terra::coupling::CouplingMap;
use qukit::terra::transpiler::{transpile, MapperKind, TranspileOptions};
use qukit::terra::{draw, qasm};
use std::fmt;
use std::io::Write;

/// CLI errors: usage problems or failures from the toolchain.
#[derive(Debug)]
pub enum CliError {
    /// Bad invocation (unknown command/flag, missing argument).
    Usage(String),
    /// File could not be read.
    Io(std::io::Error),
    /// Toolchain failure.
    Qukit(qukit::error::QukitError),
    /// The conformance fuzzer found violations (details already printed).
    Conformance(String),
    /// `stats --compare` found performance regressions (details already
    /// printed).
    Regression(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "{msg}\n\n{USAGE}"),
            CliError::Io(e) => write!(f, "{e}"),
            CliError::Qukit(e) => write!(f, "{e}"),
            CliError::Conformance(msg) => write!(f, "{msg}"),
            CliError::Regression(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

impl From<qukit::error::QukitError> for CliError {
    fn from(e: qukit::error::QukitError) -> Self {
        CliError::Qukit(e)
    }
}

impl From<qukit::terra::error::TerraError> for CliError {
    fn from(e: qukit::terra::error::TerraError) -> Self {
        CliError::Qukit(qukit::error::QukitError::Terra(e))
    }
}

const USAGE: &str = "usage:
  qukit backends
  qukit stats <file.qasm | file.json>
  qukit stats --compare OLD.json NEW.json [--tolerance T]
  qukit draw <file.qasm>
  qukit run <file.qasm> [--backend NAME] [--shots N] [--seed N]
            [--threads N] [--sweep N] [--metrics FILE.json] [--trace]
  qukit transpile <file.qasm> [--device NAME | --coupling KIND:N]
                  [--router basic|astar|sabre] [--opt-level 0..3]
                  [--emit]  (--mapper/--opt are accepted aliases)
  qukit equiv <a.qasm> <b.qasm>
  qukit jobs <file.qasm> [--backend NAME] [--shots N] [--seed N]
             [--threads N] [--retries N] [--timeout-ms N]
             [--inject-fail N | --hang-ms N] [--fallback] [--cancel]
             [--journal-dir DIR] [--tenant NAME] [--priority P]
             [--key KEY] [--max-pending N] [--cache]
             [--metrics FILE.json] [--trace] [--trace-out FILE]
             [--trace-slow-ms N] [--trace-sample N]
  qukit fuzz [--seed N] [--cases N] [--max-qubits N] [--max-depth N]
             [--oracle all|LIST] [--gate-set full|clifford|clifford+t]
             [--shots N] [--measure] [--no-shrink] [--repro-dir DIR]
             [--metrics FILE.json] [--trace]
  qukit bench [--json] [--out FILE.json] [--shots N] [--seed N]
              [--threads N] [--repeats N] [--no-metrics]
              [--large] [--sweep-bindings N]
  qukit bench --load [--tenants N] [--jobs N] [--workers N]
              [--max-pending N] [--payloads N] [--shots N] [--seed N]
              [--pace-us N] [--json] [--out FILE.json] [--trace-out FILE]
              [--trace-slow-ms N] [--trace-sample N]
  qukit serve-metrics [--addr HOST:PORT] [--for-ms N]

coupling KIND is one of line, ring, full, or grid:RxC

--threads N splits the statevector engine's work across N worker
threads (run/jobs), or sweeps the engine over power-of-two thread
counts up to N (bench, default 8). `stats --compare` exits nonzero when any (circuit, engine)
pair shared by the two baselines slowed down by more than the
tolerance (default 0.25 = 25%); timings under the noise floor are
never compared

run --sweep N turns every rotation angle in the circuit into a
parameter and executes an N-point sweep (angles scaled from 1/N up to
the original values) through the batched execution path: the template
transpiles once and all bindings run in one kernel pass with shared
state buffers. SIMD lane kernels are on by default everywhere; set
QUKIT_SIMD=off to force the bit-identical scalar kernels. bench
--large adds the 22-26 qubit dense statevector entries (SIMD vs
scalar), and bench --sweep-bindings N sizes the sweep[batch] vs
sweep[independent] comparison (default 64, 0 disables)

fuzz runs the differential conformance harness: seeded random circuits
are executed on every simulator and checked against the metamorphic
oracles (differential, inverse, roundtrip, transpile — pass a comma
list to --oracle to select a subset). Failures are shrunk to minimal
witnesses; --repro-dir writes each witness as a .qasm reproducer

jobs flags: --retries N allows N retries after the first attempt;
--timeout-ms bounds each attempt; --inject-fail N makes the backend fail
the first N calls transiently; --hang-ms makes every call stall;
--fallback submits to a fallback chain (backend, then qasm_simulator);
--cancel requests cancellation right after submitting

execution service flags (jobs): --journal-dir DIR write-ahead-logs
every submission and terminal to DIR/jobs.journal and replays it at
startup (crash recovery; pair with --key for idempotent resubmission
across restarts); --tenant NAME submits through a per-tenant session,
--priority high|normal|low picks the class, --max-pending N caps that
tenant's queued jobs (excess submissions are shed with a REJECTED
status); --cache enables the content-addressed result cache and runs
the circuit twice to demonstrate a hit

observability: --metrics FILE.json enables the qukit_* metric registry
for the command and writes the snapshot (schema qukit-metrics/v1) to
FILE.json on exit; --trace additionally prints the span tree;
--trace-out FILE writes the per-job span waterfalls as Chrome
trace-event JSON (open in chrome://tracing or Perfetto), tail-sampled
with --trace-slow-ms N (keep traces slower than N ms) and
--trace-sample N (plus every Nth trace). `qukit serve-metrics` runs a
zero-dependency scrape endpoint serving /metrics (Prometheus text
format), /healthz, and /traces/recent (JSON span buffer); --for-ms
bounds the listener's lifetime for scripted runs. Inspect
either a metrics snapshot or a bench baseline with `qukit stats
<file>.json`. `qukit bench` sweeps the fixed circuit suite across every
capable engine and emits the qukit-bench-baseline/v1 document
(--no-metrics skips per-entry metric collection for overhead runs).
`qukit bench --load` instead drives the multi-tenant load generator:
--jobs submissions across --tenants sessions with --max-pending
admission control and --payloads distinct circuits (repeats hit the
result cache); reports latency p50/p99, throughput, shed rate, and
cache hit rate, and with --json emits a one-entry baseline for
`stats --compare` gating";

/// Runs the CLI with the given arguments, writing output to `out`.
///
/// # Errors
///
/// Returns [`CliError`] on bad usage, unreadable files, or toolchain
/// failures.
pub fn run_cli(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    let mut args = args.iter();
    let command = args.next().ok_or_else(|| CliError::Usage("missing command".to_owned()))?;
    let rest: Vec<&String> = args.collect();
    match command.as_str() {
        "backends" => cmd_backends(out),
        "stats" => cmd_stats(&rest, out),
        "draw" => cmd_draw(&rest, out),
        "run" => cmd_run(&rest, out),
        "transpile" => cmd_transpile(&rest, out),
        "equiv" => cmd_equiv(&rest, out),
        "jobs" => cmd_jobs(&rest, out),
        "fuzz" => cmd_fuzz(&rest, out),
        "bench" => cmd_bench(&rest, out),
        "serve-metrics" => cmd_serve_metrics(&rest, out),
        "help" | "--help" | "-h" => {
            writeln!(out, "{USAGE}")?;
            Ok(())
        }
        other => Err(CliError::Usage(format!("unknown command '{other}'"))),
    }
}

fn load_circuit(rest: &[&String]) -> Result<qukit::QuantumCircuit, CliError> {
    let path =
        rest.first().ok_or_else(|| CliError::Usage("missing <file.qasm> argument".to_owned()))?;
    let source = std::fs::read_to_string(path.as_str())?;
    Ok(qasm::parse(&source)?)
}

fn flag_value<'a>(rest: &'a [&String], name: &str) -> Result<Option<&'a str>, CliError> {
    for (i, arg) in rest.iter().enumerate() {
        if arg.as_str() == name {
            return rest
                .get(i + 1)
                .map(|v| Some(v.as_str()))
                .ok_or_else(|| CliError::Usage(format!("flag {name} needs a value")));
        }
    }
    Ok(None)
}

fn flag_present(rest: &[&String], name: &str) -> bool {
    rest.iter().any(|a| a.as_str() == name)
}

fn parse_number<T: std::str::FromStr>(value: &str, what: &str) -> Result<T, CliError> {
    value.parse::<T>().map_err(|_| CliError::Usage(format!("invalid {what} '{value}'")))
}

fn cmd_backends(out: &mut impl Write) -> Result<(), CliError> {
    let provider = Provider::with_defaults();
    writeln!(out, "{:<16} {:>7} {:>9}", "name", "qubits", "coupling")?;
    for name in provider.backend_names() {
        let backend = provider.get_backend(name)?;
        writeln!(
            out,
            "{:<16} {:>7} {:>9}",
            backend.name(),
            backend.num_qubits(),
            if backend.coupling_map().is_some() { "yes" } else { "all" }
        )?;
    }
    Ok(())
}

fn cmd_stats(rest: &[&String], out: &mut impl Write) -> Result<(), CliError> {
    if flag_present(rest, "--compare") {
        return stats_compare(rest, out);
    }
    let path = rest.first().ok_or_else(|| CliError::Usage("missing <file> argument".to_owned()))?;
    if path.ends_with(".json") {
        return stats_json(path, out);
    }
    let circ = load_circuit(rest)?;
    writeln!(
        out,
        "{}: {} qubits, {} clbits, {} instructions, depth {}",
        circ.name(),
        circ.num_qubits(),
        circ.num_clbits(),
        circ.size(),
        circ.depth()
    )?;
    for (name, count) in circ.count_ops() {
        writeln!(out, "  {name:<10} {count}")?;
    }
    Ok(())
}

/// `qukit stats` on a `.json` file: dispatches on the embedded schema
/// — a `qukit-metrics/v1` snapshot renders as the metrics summary, a
/// `qukit-bench-baseline/v1` document as the baseline table. Parsing
/// doubles as schema validation, so CI runs this over generated files.
fn stats_json(path: &str, out: &mut impl Write) -> Result<(), CliError> {
    let text = std::fs::read_to_string(path)?;
    let schema = qukit_obs::json::JsonValue::parse(&text)
        .ok()
        .and_then(|v| v.get("schema").and_then(|s| s.as_str().map(str::to_owned)))
        .ok_or_else(|| {
            CliError::Usage(format!("{path} is not a schema-tagged qukit JSON document"))
        })?;
    match schema.as_str() {
        qukit_obs::export::SCHEMA => {
            let snapshot = qukit_obs::export::from_json(&text)
                .map_err(|e| CliError::Usage(format!("invalid metrics snapshot {path}: {e}")))?;
            write!(out, "{}", qukit_obs::export::summary(&snapshot))?;
            Ok(())
        }
        qukit_bench::baseline::BASELINE_SCHEMA => {
            let baseline = qukit_bench::baseline::Baseline::from_json(&text)
                .map_err(|e| CliError::Usage(format!("invalid bench baseline {path}: {e}")))?;
            write_baseline_table(&baseline, out)
        }
        other => Err(CliError::Usage(format!("unknown schema '{other}' in {path}"))),
    }
}

/// `qukit stats --compare OLD.json NEW.json [--tolerance T]`: the
/// perf-regression gate. Every `(circuit, engine)` pair present in both
/// baselines is compared; a slowdown beyond the tolerance fails the
/// command with a nonzero exit. Timings are floored at
/// [`MIN_COMPARE_WALL`](qukit_bench::baseline::MIN_COMPARE_WALL) so
/// sub-noise jitter cannot trip the gate.
fn stats_compare(rest: &[&String], out: &mut impl Write) -> Result<(), CliError> {
    use qukit_bench::baseline::{Baseline, MIN_COMPARE_WALL};
    let idx = rest.iter().position(|a| a.as_str() == "--compare").expect("flag checked");
    let paths: Vec<&str> =
        rest[idx + 1..].iter().take_while(|a| !a.starts_with("--")).map(|a| a.as_str()).collect();
    let [old_path, new_path] = paths[..] else {
        return Err(CliError::Usage("--compare needs exactly OLD.json NEW.json".to_owned()));
    };
    let tolerance: f64 = match flag_value(rest, "--tolerance")? {
        Some(v) => parse_number(v, "tolerance")?,
        None => 0.25,
    };
    if !(0.0..10.0).contains(&tolerance) {
        return Err(CliError::Usage(format!("tolerance {tolerance} out of range [0, 10)")));
    }
    let load = |path: &str| -> Result<Baseline, CliError> {
        let text = std::fs::read_to_string(path)?;
        Baseline::from_json(&text)
            .map_err(|e| CliError::Usage(format!("invalid bench baseline {path}: {e}")))
    };
    let old = load(old_path)?;
    let new = load(new_path)?;
    let shared = old
        .entries
        .iter()
        .filter(|o| new.entries.iter().any(|n| n.circuit == o.circuit && n.engine == o.engine))
        .count();
    let regressions = old.compare(&new, tolerance, MIN_COMPARE_WALL);
    writeln!(
        out,
        "compared {shared} shared (circuit, engine) pairs \
         ({} old, {} new entries), tolerance {:.0}%",
        old.entries.len(),
        new.entries.len(),
        tolerance * 100.0
    )?;
    for regression in &regressions {
        writeln!(out, "REGRESSION {regression}")?;
    }
    if regressions.is_empty() {
        writeln!(out, "no regressions")?;
        Ok(())
    } else {
        Err(CliError::Regression(format!(
            "{} entry(ies) slowed down by more than {:.0}%",
            regressions.len(),
            tolerance * 100.0
        )))
    }
}

fn cmd_draw(rest: &[&String], out: &mut impl Write) -> Result<(), CliError> {
    let circ = load_circuit(rest)?;
    write!(out, "{}", draw::draw(&circ))?;
    Ok(())
}

/// Observability flags shared by `run`/`jobs`/`fuzz`: `--metrics
/// FILE.json` enables the global registry for the command and writes a
/// `qukit-metrics/v1` snapshot on exit; `--trace` prints the span tree;
/// `--trace-out FILE` writes a Chrome trace-event JSON (load it in
/// `chrome://tracing` or Perfetto), optionally tail-sampled with
/// `--trace-slow-ms N` (keep traces slower than N ms) and
/// `--trace-sample N` (plus every Nth trace regardless of latency).
struct ObsSession {
    metrics_path: Option<String>,
    trace: bool,
    trace_out: Option<String>,
    trace_slow_ms: Option<u64>,
    trace_sample: Option<u64>,
}

impl ObsSession {
    fn from_flags(rest: &[&String]) -> Result<Self, CliError> {
        let metrics_path = flag_value(rest, "--metrics")?.map(str::to_owned);
        let trace = flag_present(rest, "--trace");
        let trace_out = flag_value(rest, "--trace-out")?.map(str::to_owned);
        let trace_slow_ms = match flag_value(rest, "--trace-slow-ms")? {
            Some(v) => Some(parse_number(v, "slow-trace threshold (ms)")?),
            None => None,
        };
        let trace_sample = match flag_value(rest, "--trace-sample")? {
            Some(v) => Some(parse_number(v, "trace sampling interval")?),
            None => None,
        };
        if (trace_slow_ms.is_some() || trace_sample.is_some()) && trace_out.is_none() {
            return Err(CliError::Usage(
                "--trace-slow-ms/--trace-sample need --trace-out FILE".to_owned(),
            ));
        }
        let session = Self { metrics_path, trace, trace_out, trace_slow_ms, trace_sample };
        if session.active() {
            qukit_obs::set_enabled(true);
            qukit_obs::reset();
        }
        Ok(session)
    }

    fn active(&self) -> bool {
        self.metrics_path.is_some() || self.trace || self.trace_out.is_some()
    }

    fn finish(self, out: &mut impl Write) -> Result<(), CliError> {
        if !self.active() {
            return Ok(());
        }
        let snapshot = qukit_obs::registry().snapshot();
        qukit_obs::set_enabled(false);
        if self.trace {
            writeln!(out, "trace ({} spans, oldest first):", snapshot.trace.len())?;
            for event in &snapshot.trace {
                let indent = "  ".repeat(event.depth + 1);
                let detail = if event.detail.is_empty() {
                    String::new()
                } else {
                    format!(" {}", event.detail)
                };
                writeln!(out, "{:>10}{indent}{}{detail}", fmt_us(event.duration_us), event.name)?;
            }
        }
        if let Some(path) = &self.trace_out {
            write_trace_out(path, self.trace_slow_ms, self.trace_sample, &snapshot.trace, out)?;
        }
        if let Some(path) = &self.metrics_path {
            std::fs::write(path, qukit_obs::export::to_json(&snapshot))?;
            writeln!(out, "metrics written to {path}")?;
        }
        Ok(())
    }
}

/// Assembles the recorded span trees, tail-samples them, and writes the
/// survivors as Chrome trace-event JSON. `slow_ms`/`sample` of `None`
/// keeps every trace (and `trace_events_dropped` reports any ring-buffer
/// evictions, which surface as partial trees rather than mis-nested
/// spans).
fn write_trace_out(
    path: &str,
    slow_ms: Option<u64>,
    sample: Option<u64>,
    events: &[qukit_obs::TraceEvent],
    out: &mut impl Write,
) -> Result<(), CliError> {
    let trees = qukit_obs::assemble_trees(events);
    let total = trees.len();
    let sampler = match (slow_ms, sample) {
        (None, None) => qukit_obs::TraceSampler::keep_all(),
        (slow, every) => qukit_obs::TraceSampler::new(
            slow.map_or(std::time::Duration::MAX, std::time::Duration::from_millis),
            every.unwrap_or(0),
        ),
    };
    let kept = sampler.select(trees);
    let partial = kept.iter().filter(|tree| tree.partial).count();
    let mut picked: Vec<qukit_obs::TraceEvent> = Vec::new();
    for tree in &kept {
        tree.walk(|node, _depth| picked.push(node.event.clone()));
    }
    std::fs::write(path, qukit_obs::export::chrome_trace(&picked))?;
    writeln!(
        out,
        "trace: kept {} of {total} traces ({partial} partial, {} events dropped), \
         {} spans -> {path}",
        kept.len(),
        qukit_obs::trace_events_dropped(),
        picked.len()
    )?;
    Ok(())
}

/// Renders a microsecond count as `µs`/`ms`/`s`.
fn fmt_us(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{:.2}s", us as f64 / 1e6)
    } else if us >= 1_000 {
        format!("{:.2}ms", us as f64 / 1e3)
    } else {
        format!("{us}µs")
    }
}

/// Formats a wall time given in seconds down to nanosecond resolution,
/// so sub-microsecond bench entries (cache hits) never print as `0µs`.
fn fmt_wall(seconds: f64) -> String {
    if seconds >= 1.0 {
        format!("{seconds:.2}s")
    } else if seconds >= 1e-3 {
        format!("{:.2}ms", seconds * 1e3)
    } else if seconds >= 1e-6 {
        format!("{:.2}µs", seconds * 1e6)
    } else {
        format!("{:.0}ns", seconds * 1e9)
    }
}

/// Parses `--threads N` into a statevector engine configuration with `N`
/// workers for `run`/`jobs`.
fn parallel_from_flags(
    rest: &[&String],
) -> Result<Option<qukit::aer::parallel::ParallelConfig>, CliError> {
    match flag_value(rest, "--threads")? {
        Some(v) => {
            let threads: usize = parse_number(v, "thread count")?;
            if threads == 0 {
                return Err(CliError::Usage("--threads must be at least 1".to_owned()));
            }
            Ok(Some(qukit::aer::parallel::ParallelConfig::with_threads(threads)))
        }
        None => Ok(None),
    }
}

/// Rebuilds a concrete circuit as a parameterized template, turning
/// every rotation angle (`rx`/`ry`/`rz`/`p` and all three `u` slots)
/// into a parameter. Returns the template and the original angles (the
/// binding that reproduces the input circuit exactly).
fn parameterize_rotations(
    circ: &qukit::QuantumCircuit,
) -> Result<(qukit::terra::parameter::ParameterizedCircuit, Vec<f64>), CliError> {
    use qukit::terra::instruction::Operation;
    use qukit::terra::parameter::ParameterizedCircuit;
    let mut template = ParameterizedCircuit::with_size(circ.num_qubits(), circ.num_clbits());
    let mut base = Vec::new();
    for inst in circ.instructions() {
        let rotation = match &inst.op {
            Operation::Gate(gate) if inst.condition.is_none() => {
                let name = gate.name();
                if matches!(name, "rx" | "ry" | "rz" | "p" | "u") {
                    Some((name, gate.params(), inst.qubits[0]))
                } else {
                    None
                }
            }
            _ => None,
        };
        match rotation {
            Some((name, params, q)) => {
                let mut symbols = Vec::with_capacity(params.len());
                for angle in &params {
                    let symbol = template.parameter(format!("p{}", base.len()));
                    base.push(*angle);
                    symbols.push(symbol);
                }
                match name {
                    "rx" => template.rx(symbols[0], q)?,
                    "ry" => template.ry(symbols[0], q)?,
                    "rz" => template.rz(symbols[0], q)?,
                    "p" => template.p(symbols[0], q)?,
                    _ => template.u(symbols[0], symbols[1], symbols[2], q)?,
                };
            }
            None => {
                template.circuit_mut().push(inst.clone())?;
            }
        }
    }
    Ok((template, base))
}

/// `qukit run --sweep N`: every rotation angle of the circuit becomes a
/// parameter, bound over N points scaling the original angles from 1/N
/// up to 1 (the final point reproduces the input circuit). The whole
/// grid executes through the batched sweep path — template transpiled
/// once, one kernel pass over all bindings.
fn run_sweep_points(
    provider: &Provider,
    circ: &qukit::QuantumCircuit,
    backend_name: &str,
    shots: usize,
    points: usize,
    out: &mut impl Write,
) -> Result<(), CliError> {
    if points == 0 {
        return Err(CliError::Usage("--sweep must be at least 1 point".to_owned()));
    }
    let (template, base) = parameterize_rotations(circ)?;
    if base.is_empty() {
        return Err(CliError::Usage(
            "--sweep needs at least one rotation gate (rx/ry/rz/p/u) in the circuit".to_owned(),
        ));
    }
    let bindings: Vec<Vec<f64>> = (1..=points)
        .map(|p| base.iter().map(|angle| angle * p as f64 / points as f64).collect())
        .collect();
    let backend = provider.get_backend(backend_name)?;
    let start = std::time::Instant::now();
    let report = qukit::run_sweep(backend, &template, &bindings, shots)?;
    let wall = start.elapsed().as_nanos() as f64 / 1e9;
    writeln!(
        out,
        "sweep: {points} point(s), {} parameter(s), backend: {backend_name}, shots: {shots}",
        base.len()
    )?;
    writeln!(
        out,
        "template transpiled once: {}",
        if report.transpiled_once { "yes" } else { "no (per-binding fallback)" }
    )?;
    writeln!(out, "total wall: {}, per point: {}", fmt_wall(wall), fmt_wall(wall / points as f64))?;
    let counts = report.counts.last().expect("at least one point");
    writeln!(out, "final point (original angles):")?;
    let total = counts.total() as f64;
    for (outcome, count) in counts.iter() {
        writeln!(
            out,
            "  {} {:>8} ({:.3})",
            counts.to_bitstring(outcome),
            count,
            count as f64 / total
        )?;
    }
    Ok(())
}

fn cmd_run(rest: &[&String], out: &mut impl Write) -> Result<(), CliError> {
    let obs = ObsSession::from_flags(rest)?;
    let circ = load_circuit(rest)?;
    let backend_name = flag_value(rest, "--backend")?.unwrap_or("qasm_simulator");
    let shots: usize = match flag_value(rest, "--shots")? {
        Some(v) => parse_number(v, "shot count")?,
        None => 1024,
    };
    let mut provider = build_provider(flag_value(rest, "--seed")?)?;
    if let Some(parallel) = parallel_from_flags(rest)? {
        provider.set_parallel(parallel);
    }
    if let Some(v) = flag_value(rest, "--sweep")? {
        let points: usize = parse_number(v, "sweep point count")?;
        run_sweep_points(&provider, &circ, backend_name, shots, points, out)?;
        obs.finish(out)?;
        return Ok(());
    }
    let counts = if obs.active() {
        // Instrumented path: pre-transpile for the simulator and route
        // through the job service so a single run exercises (and
        // reports on) the transpiler, the engine, and the job queue.
        let transpiled = transpile(&circ, &TranspileOptions::for_simulator(1))?.circuit;
        let executor = JobExecutor::with_config(
            provider,
            ExecutorConfig { workers: 1, queue_capacity: 4, ..Default::default() },
        );
        let job = executor.submit(&transpiled, backend_name, shots)?;
        job.result(std::time::Duration::from_secs(120))?
    } else {
        let backend = provider.get_backend(backend_name)?;
        execute(&circ, backend, shots)?
    };
    writeln!(out, "backend: {backend_name}, shots: {shots}")?;
    let total = counts.total() as f64;
    for (outcome, count) in counts.iter() {
        writeln!(
            out,
            "  {} {:>8} ({:.3})",
            counts.to_bitstring(outcome),
            count,
            count as f64 / total
        )?;
    }
    obs.finish(out)?;
    Ok(())
}

/// Builds a provider, threading an optional seed into the seedable
/// backends.
fn build_provider(seed: Option<&str>) -> Result<Provider, CliError> {
    let mut provider = Provider::new();
    match seed {
        Some(v) => {
            let seed: u64 = parse_number(v, "seed")?;
            provider
                .register(Box::new(qukit::backend::QasmSimulatorBackend::new().with_seed(seed)));
            provider.register(Box::new(qukit::backend::DdSimulatorBackend::new().with_seed(seed)));
            provider.register(Box::new(qukit::backend::FakeDevice::ibmqx2().with_seed(seed)));
            provider.register(Box::new(qukit::backend::FakeDevice::ibmqx4().with_seed(seed)));
            provider.register(Box::new(qukit::backend::FakeDevice::ibmqx5().with_seed(seed)));
        }
        None => {
            provider = Provider::with_defaults();
        }
    }
    Ok(provider)
}

/// Builds one backend instance by name, threading an optional seed.
fn make_backend(name: &str, seed: Option<u64>) -> Result<Box<dyn qukit::Backend>, CliError> {
    use qukit::backend::{DdSimulatorBackend, FakeDevice, QasmSimulatorBackend, StabilizerBackend};
    macro_rules! seeded {
        ($backend:expr) => {{
            let b = $backend;
            Ok(Box::new(match seed {
                Some(s) => b.with_seed(s),
                None => b,
            }) as Box<dyn qukit::Backend>)
        }};
    }
    match name {
        "qasm_simulator" => seeded!(QasmSimulatorBackend::new()),
        "dd_simulator" => seeded!(DdSimulatorBackend::new()),
        "stabilizer_simulator" => seeded!(StabilizerBackend::new()),
        "ibmqx2" => seeded!(FakeDevice::ibmqx2()),
        "ibmqx4" => seeded!(FakeDevice::ibmqx4()),
        "ibmqx5" => seeded!(FakeDevice::ibmqx5()),
        other => Err(CliError::Usage(format!("unknown backend '{other}'"))),
    }
}

fn cmd_jobs(rest: &[&String], out: &mut impl Write) -> Result<(), CliError> {
    let obs = ObsSession::from_flags(rest)?;
    let circ = load_circuit(rest)?;
    let backend_name = flag_value(rest, "--backend")?.unwrap_or("qasm_simulator");
    let shots: usize = match flag_value(rest, "--shots")? {
        Some(v) => parse_number(v, "shot count")?,
        None => 1024,
    };
    let seed: Option<u64> = match flag_value(rest, "--seed")? {
        Some(v) => Some(parse_number(v, "seed")?),
        None => None,
    };
    let retries: u32 = match flag_value(rest, "--retries")? {
        Some(v) => parse_number(v, "retry count")?,
        None => 2,
    };

    // Assemble the backend under test: base backend, optionally wrapped
    // in a fault injector, optionally behind a fallback chain.
    let mut backend = make_backend(backend_name, seed)?;
    let fault = match (flag_value(rest, "--inject-fail")?, flag_value(rest, "--hang-ms")?) {
        (Some(_), Some(_)) => {
            return Err(CliError::Usage(
                "--inject-fail and --hang-ms are mutually exclusive".to_owned(),
            ))
        }
        (Some(n), None) => Some(FaultMode::FailTimes(parse_number(n, "failure count")?)),
        (None, Some(ms)) => Some(FaultMode::Hang(std::time::Duration::from_millis(parse_number(
            ms,
            "hang duration",
        )?))),
        (None, None) => None,
    };
    if let Some(mode) = fault {
        backend = Box::new(FaultInjectingBackend::new(backend, mode));
    }
    let mut provider = Provider::with_defaults();
    let submit_name = if flag_present(rest, "--fallback") {
        let chain = FallbackChain::new("fallback_chain")
            .then(backend)
            .then(make_backend("qasm_simulator", seed)?);
        provider.register(Box::new(chain));
        "fallback_chain"
    } else {
        // Last registration wins: the instrumented backend shadows the
        // default one of the same name.
        provider.register(backend);
        backend_name
    };

    let mut retry = RetryPolicy::new(retries + 1)
        .with_base_backoff(std::time::Duration::from_millis(20))
        .with_jitter(0.0);
    if let Some(ms) = flag_value(rest, "--timeout-ms")? {
        retry = retry.with_attempt_timeout(std::time::Duration::from_millis(parse_number(
            ms,
            "attempt timeout",
        )?));
    }
    let use_cache = flag_present(rest, "--cache");
    let config = ExecutorConfig {
        workers: 1,
        queue_capacity: 16,
        retry,
        parallel: parallel_from_flags(rest)?,
        journal_dir: flag_value(rest, "--journal-dir")?.map(std::path::PathBuf::from),
        cache: if use_cache { Some(qukit::CacheConfig::default()) } else { None },
        ..Default::default()
    };
    let executor = JobExecutor::try_with_config(provider, config)?;
    if let Some(recovery) = executor.recovery() {
        writeln!(
            out,
            "journal: replayed {}, recovered terminal {}, corrupt dropped {}",
            recovery.replayed, recovery.recovered_terminal, recovery.corrupt_dropped
        )?;
    }

    let tenant = flag_value(rest, "--tenant")?.unwrap_or(qukit::DEFAULT_TENANT);
    let priority = match flag_value(rest, "--priority")? {
        Some(p) => qukit::Priority::parse(p)
            .ok_or_else(|| CliError::Usage(format!("unknown priority '{p}'")))?,
        None => qukit::Priority::Normal,
    };
    if let Some(cap) = flag_value(rest, "--max-pending")? {
        let cap: usize = parse_number(cap, "pending cap")?;
        let _ = executor.session_with(tenant, qukit::TenantConfig::default().with_max_pending(cap));
    }
    let key = flag_value(rest, "--key")?;
    let prior_id = key.and_then(|k| executor.job_for_key(k)).map(|j| j.id());
    let options = qukit::job::SubmitOptions {
        tenant: tenant.to_owned(),
        priority,
        idempotency_key: key.map(str::to_owned),
    };

    let job = executor.submit_with(&circ, submit_name, shots, &options)?;
    writeln!(out, "job {}: {} shots on {}", job.id(), shots, submit_name)?;
    if tenant != qukit::DEFAULT_TENANT {
        writeln!(out, "tenant: {tenant} (priority {priority})")?;
    }
    if let (Some(key), Some(prior)) = (key, prior_id) {
        if prior == job.id() {
            writeln!(out, "idempotency key '{key}' deduplicated: reusing job {prior}")?;
        }
    }
    if job.status() == qukit::job::JobStatus::Rejected {
        writeln!(out, "status: {} (shed by admission control)", job.status())?;
        obs.finish(out)?;
        executor.shutdown();
        return Ok(());
    }
    if prior_id != Some(job.id()) {
        // Every accepted submission starts queued; reading job.status()
        // here would race the worker on fast backends.
        writeln!(out, "status: {}", qukit::job::JobStatus::Queued)?;
    }
    if flag_present(rest, "--cancel") {
        let immediate = job.cancel();
        writeln!(
            out,
            "cancel requested ({})",
            if immediate { "while queued" } else { "takes effect at the next attempt boundary" }
        )?;
    }
    let outcome = job.result(std::time::Duration::from_secs(120));
    writeln!(out, "status: {}", job.status())?;
    let backoffs: Vec<String> =
        job.backoffs().iter().map(|d| format!("{}ms", d.as_millis())).collect();
    writeln!(out, "attempts: {} (backoffs: [{}])", job.attempts(), backoffs.join(", "))?;
    match outcome {
        Ok(counts) => {
            writeln!(out, "executed on: {}", job.executed_on().unwrap_or_else(|| "?".to_owned()))?;
            let total = counts.total() as f64;
            for (outcome, count) in counts.iter() {
                writeln!(
                    out,
                    "  {} {:>8} ({:.3})",
                    counts.to_bitstring(outcome),
                    count,
                    count as f64 / total
                )?;
            }
        }
        Err(e) => writeln!(out, "job failed: {e}")?,
    }
    if use_cache && job.status() == qukit::job::JobStatus::Done {
        // Resubmit the identical payload under a second tenant: the
        // cache is content-addressed, so the hit crosses tenants — and
        // the rerun's trace records a `job.cache_hit` span linking the
        // producing job's trace instead of an execution subtree.
        let rerun_tenant = format!("{tenant}-rerun");
        let rerun = executor.submit_with(
            &circ,
            submit_name,
            shots,
            &qukit::job::SubmitOptions {
                tenant: rerun_tenant.clone(),
                priority,
                idempotency_key: None,
            },
        )?;
        let _ = rerun.result(std::time::Duration::from_secs(120));
        writeln!(
            out,
            "cache: second run (tenant {rerun_tenant}) served from cache: {}",
            if rerun.served_from_cache() { "yes" } else { "no" }
        )?;
    }
    obs.finish(out)?;
    Ok(())
}

fn cmd_fuzz(rest: &[&String], out: &mut impl Write) -> Result<(), CliError> {
    let obs = ObsSession::from_flags(rest)?;
    use qukit_conformance::{
        DiffConfig, FuzzConfig, GateSet, GeneratorConfig, MatrixTable, OracleKind,
    };
    let seed: u64 = match flag_value(rest, "--seed")? {
        Some(v) => parse_number(v, "seed")?,
        None => 42,
    };
    let cases: usize = match flag_value(rest, "--cases")? {
        Some(v) => parse_number(v, "case count")?,
        None => 200,
    };
    let max_qubits: usize = match flag_value(rest, "--max-qubits")? {
        Some(v) => parse_number(v, "qubit bound")?,
        None => 5,
    };
    let max_depth: usize = match flag_value(rest, "--max-depth")? {
        Some(v) => parse_number(v, "depth bound")?,
        None => 16,
    };
    let shots: usize = match flag_value(rest, "--shots")? {
        Some(v) => parse_number(v, "shot count")?,
        None => 1024,
    };
    let oracles = match flag_value(rest, "--oracle")? {
        Some(spec) => OracleKind::parse_list(spec)
            .ok_or_else(|| CliError::Usage(format!("unknown oracle list '{spec}'")))?,
        None => OracleKind::ALL.to_vec(),
    };
    let gate_set = match flag_value(rest, "--gate-set")? {
        Some(name) => GateSet::parse(name)
            .ok_or_else(|| CliError::Usage(format!("unknown gate set '{name}'")))?,
        None => GateSet::Full,
    };
    if max_qubits == 0 {
        return Err(CliError::Usage("--max-qubits must be at least 1".to_owned()));
    }
    let config = FuzzConfig {
        seed,
        cases,
        generator: GeneratorConfig {
            gate_set,
            max_qubits,
            max_depth: max_depth.max(1),
            with_measurements: flag_present(rest, "--measure"),
            ..GeneratorConfig::default()
        },
        oracles,
        diff: DiffConfig { shots, seed: seed.wrapping_add(1), ..DiffConfig::default() },
        matrices: MatrixTable::pristine(),
        shrink: !flag_present(rest, "--no-shrink"),
        max_failures: 5,
    };
    let oracle_names: Vec<&str> = config.oracles.iter().map(|k| k.name()).collect();
    writeln!(
        out,
        "fuzzing: seed {seed}, {cases} cases, <= {max_qubits} qubits, <= {} gates, \
         gate set {:?}, oracles [{}]",
        config.generator.max_depth,
        gate_set,
        oracle_names.join(", ")
    )?;
    let report = qukit_conformance::run_fuzz(&config);
    writeln!(
        out,
        "cases: {} in {:.2}s ({:.1} cases/sec)",
        report.cases,
        report.elapsed_seconds,
        report.cases_per_sec()
    )?;
    for (oracle, passed) in &report.checks {
        let skipped = report.skips.get(oracle).copied().unwrap_or(0);
        let secs = report.oracle_seconds.get(oracle).copied().unwrap_or(0.0);
        if skipped > 0 {
            writeln!(out, "  {oracle:<13} {passed:>6} passed, {skipped} skipped ({secs:.2}s)")?;
        } else {
            writeln!(out, "  {oracle:<13} {passed:>6} passed ({secs:.2}s)")?;
        }
    }
    if let Some((slowest, secs)) = report.slowest_oracles().first() {
        writeln!(out, "slowest oracle: {slowest} ({secs:.2}s total)")?;
    }
    let repro_dir = flag_value(rest, "--repro-dir")?;
    for failure in &report.failures {
        writeln!(out, "---")?;
        writeln!(out, "case {} FAILED: {}", failure.case_index, failure.mismatch)?;
        writeln!(
            out,
            "shrunk {} -> {} gates ({})",
            failure.original.num_gates(),
            failure.shrunk.num_gates(),
            failure.reproducer.file_name()
        )?;
        write!(out, "{}", failure.reproducer.qasm)?;
        writeln!(out, "--- suggested regression test ---")?;
        write!(out, "{}", failure.reproducer.test_case)?;
        if let Some(dir) = repro_dir {
            let dir = std::path::Path::new(dir);
            std::fs::create_dir_all(dir)?;
            std::fs::write(dir.join(failure.reproducer.file_name()), &failure.reproducer.qasm)?;
        }
    }
    obs.finish(out)?;
    if report.is_green() {
        writeln!(out, "all oracles green")?;
        Ok(())
    } else {
        Err(CliError::Conformance(format!(
            "{} conformance violation(s) found (seed {seed})",
            report.failures.len()
        )))
    }
}

fn cmd_bench(rest: &[&String], out: &mut impl Write) -> Result<(), CliError> {
    use qukit_bench::baseline::{run_baseline, BaselineConfig};
    if flag_present(rest, "--load") {
        return bench_load(rest, out);
    }
    let shots: usize = match flag_value(rest, "--shots")? {
        Some(v) => parse_number(v, "shot count")?,
        None => 1024,
    };
    let seed: u64 = match flag_value(rest, "--seed")? {
        Some(v) => parse_number(v, "seed")?,
        None => 7,
    };
    let max_threads: usize = match flag_value(rest, "--threads")? {
        Some(v) => {
            let n = parse_number(v, "thread count")?;
            if n == 0 {
                return Err(CliError::Usage("--threads must be at least 1".to_owned()));
            }
            n
        }
        None => 8,
    };
    let mut threads: Vec<usize> = [1, 2, 4, 8].into_iter().filter(|t| *t <= max_threads).collect();
    if !threads.contains(&max_threads) {
        threads.push(max_threads);
    }
    let repeats: usize = match flag_value(rest, "--repeats")? {
        Some(v) => parse_number(v, "repeat count")?,
        None => 3,
    };
    let sweep_bindings: usize = match flag_value(rest, "--sweep-bindings")? {
        Some(v) => parse_number(v, "sweep binding count")?,
        None => BaselineConfig::default().sweep_bindings,
    };
    let config = BaselineConfig {
        shots,
        seed,
        collect_metrics: !flag_present(rest, "--no-metrics"),
        repeats: repeats.max(1),
        threads,
        large_statevector: flag_present(rest, "--large"),
        sweep_bindings,
    };
    let baseline = run_baseline(&config);
    if flag_present(rest, "--json") {
        let json = baseline.to_json();
        match flag_value(rest, "--out")? {
            Some(path) => {
                std::fs::write(path, &json)?;
                writeln!(out, "baseline written to {path} ({} entries)", baseline.entries.len())?;
            }
            None => write!(out, "{json}")?,
        }
    } else {
        write_baseline_table(&baseline, out)?;
    }
    Ok(())
}

/// `qukit bench --load`: the multi-tenant load generator. Reports
/// service latency quantiles, throughput, shed rate, and cache hit
/// rate; `--json` emits a one-entry `qukit-bench-baseline/v1` document
/// for the `stats --compare` gate.
fn bench_load(rest: &[&String], out: &mut impl Write) -> Result<(), CliError> {
    use qukit_bench::load::{run_load, LoadConfig};
    let mut config = LoadConfig::default();
    if let Some(v) = flag_value(rest, "--tenants")? {
        config.tenants = parse_number(v, "tenant count")?;
    }
    if let Some(v) = flag_value(rest, "--jobs")? {
        config.jobs = parse_number(v, "job count")?;
    }
    if let Some(v) = flag_value(rest, "--workers")? {
        config.workers = parse_number(v, "worker count")?;
    }
    if let Some(v) = flag_value(rest, "--max-pending")? {
        config.max_pending = parse_number(v, "pending cap")?;
    }
    if let Some(v) = flag_value(rest, "--payloads")? {
        config.payload_pool = parse_number(v, "payload count")?;
    }
    if let Some(v) = flag_value(rest, "--shots")? {
        config.shots = parse_number(v, "shot count")?;
    }
    if let Some(v) = flag_value(rest, "--seed")? {
        config.seed = parse_number(v, "seed")?;
    }
    if let Some(v) = flag_value(rest, "--pace-us")? {
        config.pace_micros = parse_number(v, "pace")?;
    }
    if config.tenants == 0 || config.jobs == 0 || config.workers == 0 {
        return Err(CliError::Usage(
            "--tenants, --jobs, and --workers must all be at least 1".to_owned(),
        ));
    }
    writeln!(
        out,
        "load: {} jobs across {} tenants, {} workers, max pending {} per tenant, \
         {} payloads, seed {}",
        config.jobs,
        config.tenants,
        config.workers,
        config.max_pending,
        config.payload_pool,
        config.seed
    )?;
    let report = run_load(&config);
    write!(out, "{}", report.render())?;
    if let Some(path) = flag_value(rest, "--trace-out")? {
        let slow_ms = match flag_value(rest, "--trace-slow-ms")? {
            Some(v) => Some(parse_number(v, "slow-trace threshold (ms)")?),
            None => None,
        };
        let sample = match flag_value(rest, "--trace-sample")? {
            Some(v) => Some(parse_number(v, "trace sampling interval")?),
            None => None,
        };
        // run_load resets the registry on entry and restores the
        // enabled flag on exit, so the ring buffer still holds exactly
        // this run's spans here.
        write_trace_out(path, slow_ms, sample, &qukit_obs::snapshot_trace(), out)?;
    }
    if flag_present(rest, "--json") {
        let json = report.to_baseline(&config).to_json();
        match flag_value(rest, "--out")? {
            Some(path) => {
                std::fs::write(path, &json)?;
                writeln!(out, "baseline written to {path} (1 entry)")?;
            }
            None => write!(out, "{json}")?,
        }
    }
    Ok(())
}

/// `qukit serve-metrics`: a zero-dependency HTTP scrape endpoint over
/// the global registry — `/metrics` (Prometheus text format),
/// `/healthz`, and `/traces/recent` (recorded span buffer as JSON).
/// Enables metrics recording for the listener's lifetime. `--for-ms N`
/// bounds the run for scripted use; without it the listener serves
/// until the process is killed.
fn cmd_serve_metrics(rest: &[&String], out: &mut impl Write) -> Result<(), CliError> {
    let addr = flag_value(rest, "--addr")?.unwrap_or("127.0.0.1:9187");
    let for_ms: Option<u64> = match flag_value(rest, "--for-ms")? {
        Some(v) => Some(parse_number(v, "serve duration (ms)")?),
        None => None,
    };
    qukit_obs::set_enabled(true);
    let server = qukit_obs::http::serve(addr)
        .map_err(|e| CliError::Usage(format!("cannot bind {addr}: {e}")))?;
    writeln!(out, "serving /metrics, /healthz, /traces/recent on http://{}", server.local_addr())?;
    out.flush()?;
    match for_ms {
        Some(ms) => {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            server.shutdown();
            writeln!(out, "served for {ms}ms, shut down")?;
        }
        None => loop {
            std::thread::park();
        },
    }
    Ok(())
}

/// Renders a bench baseline as the human-readable table shown by both
/// `qukit bench` and `qukit stats <baseline>.json`.
fn write_baseline_table(
    baseline: &qukit_bench::baseline::Baseline,
    out: &mut impl Write,
) -> Result<(), CliError> {
    writeln!(
        out,
        "{:<16} {:<34} {:>6} {:>6} {:>6} {:>10} {:>8}",
        "circuit", "engine", "qubits", "gates", "shots", "wall", "metrics"
    )?;
    for entry in &baseline.entries {
        writeln!(
            out,
            "{:<16} {:<34} {:>6} {:>6} {:>6} {:>10} {:>8}",
            entry.circuit,
            entry.engine,
            entry.qubits,
            entry.gates,
            entry.shots,
            fmt_wall(entry.wall_seconds),
            entry.metrics.len()
        )?;
    }
    writeln!(
        out,
        "{} entries (schema {})",
        baseline.entries.len(),
        qukit_bench::baseline::BASELINE_SCHEMA
    )?;
    Ok(())
}

fn parse_coupling(spec: &str) -> Result<CouplingMap, CliError> {
    let (kind, size) = spec
        .split_once(':')
        .ok_or_else(|| CliError::Usage(format!("coupling spec '{spec}' must be KIND:N")))?;
    match kind {
        "line" => Ok(CouplingMap::line(parse_number(size, "size")?)),
        "ring" => Ok(CouplingMap::ring(parse_number(size, "size")?)),
        "full" => Ok(CouplingMap::full(parse_number(size, "size")?)),
        "grid" => {
            let (r, c) = size
                .split_once('x')
                .ok_or_else(|| CliError::Usage(format!("grid spec '{size}' must be RxC")))?;
            Ok(CouplingMap::grid(parse_number(r, "rows")?, parse_number(c, "cols")?))
        }
        other => Err(CliError::Usage(format!("unknown coupling kind '{other}'"))),
    }
}

fn device_coupling(name: &str) -> Result<CouplingMap, CliError> {
    match name {
        "ibmqx2" => Ok(CouplingMap::ibm_qx2()),
        "ibmqx3" => Ok(CouplingMap::ibm_qx3()),
        "ibmqx4" => Ok(CouplingMap::ibm_qx4()),
        "ibmqx5" => Ok(CouplingMap::ibm_qx5()),
        other => Err(CliError::Usage(format!("unknown device '{other}'"))),
    }
}

fn cmd_transpile(rest: &[&String], out: &mut impl Write) -> Result<(), CliError> {
    let circ = load_circuit(rest)?;
    let coupling = match (flag_value(rest, "--device")?, flag_value(rest, "--coupling")?) {
        (Some(device), None) => Some(device_coupling(device)?),
        (None, Some(spec)) => Some(parse_coupling(spec)?),
        (None, None) => None,
        (Some(_), Some(_)) => {
            return Err(CliError::Usage(
                "--device and --coupling are mutually exclusive".to_owned(),
            ))
        }
    };
    let mapper_flag = match (flag_value(rest, "--mapper")?, flag_value(rest, "--router")?) {
        (Some(_), Some(_)) => {
            return Err(CliError::Usage(
                "--mapper and --router are aliases; pass only one".to_owned(),
            ))
        }
        (mapper, router) => mapper.or(router),
    };
    let mapper = match mapper_flag {
        None => MapperKind::default(),
        Some("basic") => MapperKind::Basic,
        Some("astar") => MapperKind::AStar,
        Some("sabre") => MapperKind::Sabre,
        Some(other) => {
            return Err(CliError::Usage(format!(
                "unknown mapper '{other}' (expected basic, astar or sabre)"
            )))
        }
    };
    let opt_flag = match (flag_value(rest, "--opt")?, flag_value(rest, "--opt-level")?) {
        (Some(_), Some(_)) => {
            return Err(CliError::Usage(
                "--opt and --opt-level are aliases; pass only one".to_owned(),
            ))
        }
        (opt, opt_level) => opt.or(opt_level),
    };
    let optimization_level: u8 = match opt_flag {
        Some(v) => {
            let level = parse_number(v, "optimization level")?;
            if level > 3 {
                return Err(CliError::Usage(format!("optimization level {level} not in 0..=3")));
            }
            level
        }
        None => 1,
    };
    let options = TranspileOptions {
        coupling_map: coupling,
        mapper,
        optimization_level,
        ..TranspileOptions::default()
    };
    let result = transpile(&circ, &options)?;
    writeln!(out, "in:  {} gates, depth {}", circ.num_gates(), circ.depth())?;
    writeln!(
        out,
        "out: {} gates, depth {}, swaps inserted {}",
        result.circuit.num_gates(),
        result.circuit.depth(),
        result.num_swaps
    )?;
    writeln!(out, "initial layout: {:?}", result.initial_layout)?;
    writeln!(out, "final layout:   {:?}", result.final_layout)?;
    if flag_present(rest, "--emit") {
        writeln!(out, "---")?;
        write!(out, "{}", qasm::emit(&result.circuit))?;
    }
    Ok(())
}

fn cmd_equiv(rest: &[&String], out: &mut impl Write) -> Result<(), CliError> {
    if rest.len() < 2 {
        return Err(CliError::Usage("equiv needs two .qasm files".to_owned()));
    }
    let a = qasm::parse(&std::fs::read_to_string(rest[0].as_str())?)?;
    let b = qasm::parse(&std::fs::read_to_string(rest[1].as_str())?)?;
    if a.num_qubits() != b.num_qubits() {
        writeln!(out, "NOT equivalent: widths differ ({} vs {})", a.num_qubits(), b.num_qubits())?;
        return Ok(());
    }
    let verdict = qukit::dd::verify::check_equivalence(&a, &b)
        .map_err(|e| CliError::Qukit(qukit::error::QukitError::Dd(e)))?;
    match verdict {
        qukit::dd::verify::Equivalence::Equivalent => writeln!(out, "equivalent")?,
        qukit::dd::verify::Equivalence::EquivalentUpToPhase(phase) => {
            writeln!(out, "equivalent up to global phase {phase:+.6} rad")?
        }
        qukit::dd::verify::Equivalence::NotEquivalent => writeln!(out, "NOT equivalent")?,
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn run_ok(list: &[&str]) -> String {
        let mut out = Vec::new();
        run_cli(&args(list), &mut out).expect("cli must succeed");
        String::from_utf8(out).expect("utf8 output")
    }

    fn run_err(list: &[&str]) -> CliError {
        let mut out = Vec::new();
        run_cli(&args(list), &mut out).expect_err("cli must fail")
    }

    fn write_bell() -> tempfile::TempQasm {
        tempfile::TempQasm::new(
            "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncreg c[2];\n\
             h q[0];\ncx q[0],q[1];\nmeasure q -> c;\n",
        )
    }

    /// Minimal self-cleaning temp file helper (no external crates).
    mod tempfile {
        pub struct TempQasm {
            pub path: std::path::PathBuf,
        }
        impl TempQasm {
            pub fn new(contents: &str) -> Self {
                let path = std::env::temp_dir().join(format!(
                    "qukit_cli_test_{}_{}.qasm",
                    std::process::id(),
                    std::time::SystemTime::now()
                        .duration_since(std::time::UNIX_EPOCH)
                        .expect("clock")
                        .as_nanos()
                ));
                std::fs::write(&path, contents).expect("write temp qasm");
                Self { path }
            }
            pub fn as_str(&self) -> &str {
                self.path.to_str().expect("utf8 path")
            }
        }
        impl Drop for TempQasm {
            fn drop(&mut self) {
                let _ = std::fs::remove_file(&self.path);
            }
        }
    }

    #[test]
    fn backends_lists_defaults() {
        let text = run_ok(&["backends"]);
        for name in ["qasm_simulator", "dd_simulator", "ibmqx2", "ibmqx4", "ibmqx5"] {
            assert!(text.contains(name), "missing {name} in:\n{text}");
        }
    }

    #[test]
    fn stats_reports_counts_and_depth() {
        let file = write_bell();
        let text = run_ok(&["stats", file.as_str()]);
        assert!(text.contains("2 qubits"));
        assert!(text.contains("h "));
        assert!(text.contains("measure"));
    }

    #[test]
    fn draw_renders_wires() {
        let file = write_bell();
        let text = run_ok(&["draw", file.as_str()]);
        assert!(text.contains("[H]"));
        assert!(text.contains("q0:"));
    }

    #[test]
    fn run_produces_correlated_bell_counts() {
        let file = write_bell();
        let text = run_ok(&[
            "run",
            file.as_str(),
            "--backend",
            "qasm_simulator",
            "--shots",
            "200",
            "--seed",
            "5",
        ]);
        assert!(text.contains("shots: 200"));
        assert!(text.contains("00"));
        assert!(!text.contains(" 01 "), "bell must not produce 01:\n{text}");
    }

    #[test]
    fn run_sweep_executes_angle_grid_through_batch_path() {
        let file = tempfile::TempQasm::new(
            "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncreg c[2];\n\
             ry(0.8) q[0];\ncx q[0],q[1];\nrz(1.2) q[1];\nmeasure q -> c;\n",
        );
        let text = run_ok(&["run", file.as_str(), "--sweep", "4", "--shots", "100", "--seed", "3"]);
        assert!(text.contains("sweep: 4 point(s), 2 parameter(s)"), "{text}");
        assert!(text.contains("template transpiled once: yes"), "{text}");
        assert!(text.contains("final point (original angles):"), "{text}");
        // The final sweep point reproduces the original circuit exactly.
        let direct = run_ok(&["run", file.as_str(), "--shots", "100", "--seed", "3"]);
        let tail = |s: &str| {
            s.lines()
                .filter(|l| l.trim_start().starts_with(['0', '1']))
                .map(str::trim)
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(tail(&text), tail(&direct), "sweep:\n{text}\ndirect:\n{direct}");
    }

    #[test]
    fn run_sweep_without_rotations_is_a_usage_error() {
        let file = write_bell();
        let err = run_err(&["run", file.as_str(), "--sweep", "4"]);
        assert!(matches!(err, CliError::Usage(_)), "{err:?}");
        assert!(err.to_string().contains("rotation"), "{err}");
    }

    #[test]
    fn run_on_fake_device() {
        let file = write_bell();
        let text =
            run_ok(&["run", file.as_str(), "--backend", "ibmqx4", "--shots", "100", "--seed", "1"]);
        assert!(text.contains("backend: ibmqx4"));
    }

    #[test]
    fn transpile_to_device_and_emit() {
        let file = write_bell();
        let text = run_ok(&[
            "transpile",
            file.as_str(),
            "--device",
            "ibmqx4",
            "--mapper",
            "astar",
            "--opt",
            "3",
            "--emit",
        ]);
        assert!(text.contains("swaps inserted"));
        assert!(text.contains("OPENQASM 2.0;"));
    }

    #[test]
    fn transpile_with_synthetic_coupling() {
        let file = write_bell();
        let text = run_ok(&["transpile", file.as_str(), "--coupling", "line:4"]);
        assert!(text.contains("out:"));
        let text = run_ok(&["transpile", file.as_str(), "--coupling", "grid:2x2"]);
        assert!(text.contains("out:"));
    }

    #[test]
    fn transpile_router_and_opt_level_flags() {
        let file = write_bell();
        let text = run_ok(&[
            "transpile",
            file.as_str(),
            "--device",
            "ibmqx4",
            "--router",
            "sabre",
            "--opt-level",
            "3",
        ]);
        assert!(text.contains("swaps inserted"));
        let err = run_err(&["transpile", file.as_str(), "--router", "sabre", "--mapper", "astar"]);
        assert!(matches!(err, CliError::Usage(msg) if msg.contains("aliases")));
        let err = run_err(&["transpile", file.as_str(), "--opt-level", "7"]);
        assert!(matches!(err, CliError::Usage(msg) if msg.contains("not in 0..=3")));
    }

    #[test]
    fn retired_lookahead_router_is_a_usage_error() {
        let file = write_bell();
        let err = run_err(&["transpile", file.as_str(), "--mapper", "lookahead"]);
        assert!(
            matches!(&err, CliError::Usage(msg) if msg.contains("basic, astar or sabre")),
            "{err:?}"
        );
    }

    #[test]
    fn equiv_detects_rewrites_and_differences() {
        let a = write_bell();
        // Same circuit with a cancelled H pair in the middle (no
        // measurement: equivalence checking needs unitary circuits).
        let u = tempfile::TempQasm::new(
            "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n",
        );
        let v = tempfile::TempQasm::new(
            "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nh q[0];\nh q[1];\nh q[1];\ncx q[0],q[1];\n",
        );
        let w = tempfile::TempQasm::new(
            "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nh q[0];\ncx q[1],q[0];\n",
        );
        let text = run_ok(&["equiv", u.as_str(), v.as_str()]);
        assert!(text.contains("equivalent"), "{text}");
        let text = run_ok(&["equiv", u.as_str(), w.as_str()]);
        assert!(text.contains("NOT equivalent"), "{text}");
        let _ = a;
    }

    #[test]
    fn jobs_happy_path_reports_lifecycle() {
        let file = write_bell();
        let text = run_ok(&["jobs", file.as_str(), "--shots", "200", "--seed", "5"]);
        assert!(text.contains("status: QUEUED"), "{text}");
        assert!(text.contains("status: DONE"), "{text}");
        assert!(text.contains("attempts: 1 (backoffs: [])"), "{text}");
        assert!(text.contains("executed on: qasm_simulator"), "{text}");
        assert!(text.contains("00"), "{text}");
    }

    #[test]
    fn jobs_retries_injected_transient_faults() {
        let file = write_bell();
        let text = run_ok(&[
            "jobs",
            file.as_str(),
            "--shots",
            "100",
            "--seed",
            "5",
            "--inject-fail",
            "2",
            "--retries",
            "3",
        ]);
        assert!(text.contains("status: DONE"), "{text}");
        assert!(text.contains("attempts: 3"), "{text}");
        assert!(text.contains("20ms, 40ms"), "{text}");
    }

    #[test]
    fn jobs_exhausted_retries_report_error() {
        let file = write_bell();
        let text = run_ok(&["jobs", file.as_str(), "--inject-fail", "99", "--retries", "1"]);
        assert!(text.contains("status: ERROR"), "{text}");
        assert!(text.contains("attempts: 2"), "{text}");
        assert!(text.contains("job failed:"), "{text}");
    }

    #[test]
    fn jobs_hang_times_out() {
        let file = write_bell();
        let text = run_ok(&["jobs", file.as_str(), "--hang-ms", "500", "--timeout-ms", "25"]);
        assert!(text.contains("status: TIMED_OUT"), "{text}");
        assert!(text.contains("attempts: 1"), "{text}");
    }

    #[test]
    fn jobs_fallback_chain_records_server() {
        // reset is non-unitary: the dd simulator rejects it, the chain
        // falls back to the qasm simulator.
        let file = tempfile::TempQasm::new(
            "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[1];\ncreg c[1];\n\
             x q[0];\nreset q[0];\nx q[0];\nmeasure q -> c;\n",
        );
        let text = run_ok(&[
            "jobs",
            file.as_str(),
            "--backend",
            "dd_simulator",
            "--fallback",
            "--shots",
            "50",
            "--seed",
            "3",
        ]);
        assert!(text.contains("status: DONE"), "{text}");
        assert!(text.contains("executed on: qasm_simulator"), "{text}");
    }

    #[test]
    fn jobs_cancel_is_honored() {
        let file = write_bell();
        let text =
            run_ok(&["jobs", file.as_str(), "--inject-fail", "9", "--retries", "9", "--cancel"]);
        assert!(text.contains("cancel requested"), "{text}");
        assert!(text.contains("status: CANCELLED"), "{text}");
    }

    #[test]
    fn jobs_flag_conflicts_and_unknown_backend() {
        let file = write_bell();
        assert!(matches!(
            run_err(&["jobs", file.as_str(), "--inject-fail", "1", "--hang-ms", "5"]),
            CliError::Usage(_)
        ));
        assert!(matches!(
            run_err(&["jobs", file.as_str(), "--backend", "ibmqx99"]),
            CliError::Usage(_)
        ));
    }

    #[test]
    fn usage_errors_are_reported() {
        assert!(matches!(run_err(&[]), CliError::Usage(_)));
        assert!(matches!(run_err(&["frobnicate"]), CliError::Usage(_)));
        assert!(matches!(run_err(&["stats"]), CliError::Usage(_)));
        let file = write_bell();
        assert!(matches!(
            run_err(&["transpile", file.as_str(), "--mapper", "magic"]),
            CliError::Usage(_)
        ));
        assert!(matches!(
            run_err(&["transpile", file.as_str(), "--coupling", "torus:4"]),
            CliError::Usage(_)
        ));
        assert!(matches!(run_err(&["run", file.as_str(), "--shots"]), CliError::Usage(_)));
    }

    #[test]
    fn fuzz_smoke_campaign_is_green() {
        let text = run_ok(&[
            "fuzz",
            "--seed",
            "42",
            "--cases",
            "10",
            "--max-qubits",
            "3",
            "--max-depth",
            "6",
            "--shots",
            "128",
        ]);
        assert!(text.contains("cases: 10"), "{text}");
        assert!(text.contains("all oracles green"), "{text}");
        assert!(text.contains("differential"), "{text}");
    }

    #[test]
    fn fuzz_with_measurements_and_oracle_subset() {
        let text = run_ok(&[
            "fuzz",
            "--cases",
            "5",
            "--max-qubits",
            "2",
            "--max-depth",
            "4",
            "--shots",
            "64",
            "--measure",
            "--oracle",
            "differential,roundtrip",
        ]);
        assert!(text.contains("oracles [differential, roundtrip]"), "{text}");
        assert!(text.contains("all oracles green"), "{text}");
    }

    #[test]
    fn fuzz_rejects_bad_flags() {
        assert!(matches!(run_err(&["fuzz", "--oracle", "bogus"]), CliError::Usage(_)));
        assert!(matches!(run_err(&["fuzz", "--gate-set", "bogus"]), CliError::Usage(_)));
        assert!(matches!(run_err(&["fuzz", "--max-qubits", "0"]), CliError::Usage(_)));
        assert!(matches!(run_err(&["fuzz", "--cases", "many"]), CliError::Usage(_)));
    }

    #[test]
    fn missing_file_is_io_error() {
        assert!(matches!(run_err(&["stats", "/nonexistent/file.qasm"]), CliError::Io(_)));
    }

    /// Commands that toggle the global metrics registry must not
    /// interleave; every `--metrics`/`--trace`/`bench` test takes this.
    fn obs_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// A self-cleaning temp path for JSON artifacts.
    fn temp_json(tag: &str) -> tempfile::TempQasm {
        let path = std::env::temp_dir().join(format!(
            "qukit_cli_test_{tag}_{}_{}.json",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .expect("clock")
                .as_nanos()
        ));
        // Reuse TempQasm purely for its Drop cleanup.
        std::fs::write(&path, "").expect("create temp json");
        tempfile::TempQasm { path }
    }

    #[test]
    fn run_with_metrics_captures_all_three_layers() {
        let _guard = obs_lock();
        let file = write_bell();
        let metrics = temp_json("run");
        let text = run_ok(&[
            "run",
            file.as_str(),
            "--shots",
            "100",
            "--seed",
            "3",
            "--metrics",
            metrics.as_str(),
        ]);
        assert!(text.contains("metrics written to"), "{text}");
        let written = std::fs::read_to_string(&metrics.path).expect("snapshot written");
        qukit_obs::export::validate_snapshot_json(&written).expect("schema-valid snapshot");
        let snapshot = qukit_obs::export::from_json(&written).expect("snapshot parses");
        // Transpiler, simulator, and job-service metrics are all nonzero.
        assert!(
            snapshot.histograms.keys().any(|k| k.starts_with("qukit_terra_pass_seconds")),
            "transpiler pass timings present: {:?}",
            snapshot.histograms.keys().collect::<Vec<_>>()
        );
        assert!(snapshot.counters.get("qukit_terra_transpile_runs_total") > Some(&0));
        assert!(snapshot.counters.get("qukit_aer_qasm_runs_total") > Some(&0));
        assert!(snapshot.counters.get("qukit_core_jobs_submitted_total") > Some(&0));
        assert!(snapshot.counters.get("qukit_core_jobs_completed_total") > Some(&0));
        // The `stats` command renders the snapshot as a summary.
        let summary = run_ok(&["stats", metrics.as_str()]);
        assert!(summary.contains("terra"), "{summary}");
        assert!(summary.contains("core"), "{summary}");
    }

    #[test]
    fn run_with_trace_prints_span_tree() {
        let _guard = obs_lock();
        let file = write_bell();
        let text = run_ok(&["run", file.as_str(), "--shots", "50", "--seed", "1", "--trace"]);
        assert!(text.contains("trace ("), "{text}");
        assert!(text.contains("transpile"), "{text}");
    }

    #[test]
    fn jobs_with_metrics_counts_retries() {
        let _guard = obs_lock();
        let file = write_bell();
        let metrics = temp_json("jobs");
        run_ok(&[
            "jobs",
            file.as_str(),
            "--shots",
            "50",
            "--inject-fail",
            "2",
            "--retries",
            "3",
            "--metrics",
            metrics.as_str(),
        ]);
        let written = std::fs::read_to_string(&metrics.path).expect("snapshot written");
        let snapshot = qukit_obs::export::from_json(&written).expect("snapshot parses");
        assert_eq!(snapshot.counters.get("qukit_core_job_retries_total"), Some(&2));
        assert_eq!(snapshot.counters.get("qukit_core_fault_injections_total"), Some(&2));
        assert_eq!(snapshot.counters.get("qukit_core_jobs_completed_total"), Some(&1));
    }

    #[test]
    fn bench_emits_and_stats_renders_a_valid_baseline() {
        let _guard = obs_lock();
        let out_file = temp_json("bench");
        let text = run_ok(&["bench", "--json", "--out", out_file.as_str(), "--shots", "16"]);
        assert!(text.contains("baseline written to"), "{text}");
        let written = std::fs::read_to_string(&out_file.path).expect("baseline written");
        let baseline =
            qukit_bench::baseline::Baseline::from_json(&written).expect("baseline validates");
        assert!(baseline.entries.len() >= 8);
        let table = run_ok(&["stats", out_file.as_str()]);
        assert!(table.contains("dd_simulator"), "{table}");
        assert!(table.contains("entries (schema qukit-bench-baseline/v1)"), "{table}");
    }

    #[test]
    fn stats_rejects_unknown_json() {
        let _guard = obs_lock();
        let bogus = temp_json("bogus");
        std::fs::write(&bogus.path, "{\"schema\": \"mystery/v1\"}").unwrap();
        assert!(matches!(run_err(&["stats", bogus.as_str()]), CliError::Usage(_)));
        std::fs::write(&bogus.path, "not json at all").unwrap();
        assert!(matches!(run_err(&["stats", bogus.as_str()]), CliError::Usage(_)));
    }

    #[test]
    fn fuzz_reports_throughput_and_slowest_oracle() {
        let text = run_ok(&[
            "fuzz",
            "--seed",
            "7",
            "--cases",
            "5",
            "--max-qubits",
            "2",
            "--max-depth",
            "4",
            "--shots",
            "64",
        ]);
        assert!(text.contains("cases/sec"), "{text}");
        assert!(text.contains("slowest oracle:"), "{text}");
    }

    #[test]
    fn help_prints_usage() {
        let text = run_ok(&["help"]);
        assert!(text.contains("usage:"));
        assert!(text.contains("--compare"));
        assert!(text.contains("--threads"));
    }

    #[test]
    fn run_with_threads_produces_correlated_bell_counts() {
        let file = write_bell();
        let text =
            run_ok(&["run", file.as_str(), "--shots", "200", "--seed", "5", "--threads", "2"]);
        assert!(text.contains("shots: 200"));
        assert!(!text.contains(" 01 "), "bell must not produce 01:\n{text}");
        assert!(matches!(run_err(&["run", file.as_str(), "--threads", "0"]), CliError::Usage(_)));
    }

    #[test]
    fn jobs_with_threads_completes() {
        let file = write_bell();
        let text =
            run_ok(&["jobs", file.as_str(), "--shots", "100", "--seed", "3", "--threads", "4"]);
        assert!(text.contains("status: DONE"), "{text}");
    }

    /// Writes a synthetic one-entry baseline document.
    fn write_baseline(tag: &str, wall: f64) -> tempfile::TempQasm {
        let file = temp_json(tag);
        let baseline = qukit_bench::baseline::Baseline {
            entries: vec![qukit_bench::baseline::BaselineEntry {
                circuit: "bell".to_owned(),
                engine: "qasm_simulator".to_owned(),
                qubits: 2,
                gates: 2,
                shots: 16,
                wall_seconds: wall,
                metrics: Default::default(),
            }],
        };
        std::fs::write(&file.path, baseline.to_json()).expect("write baseline");
        file
    }

    #[test]
    fn stats_compare_passes_within_tolerance_and_fails_beyond() {
        let old = write_baseline("old", 0.010);
        let same = write_baseline("same", 0.011);
        let text = run_ok(&["stats", "--compare", old.as_str(), same.as_str()]);
        assert!(text.contains("no regressions"), "{text}");

        let slow = write_baseline("slow", 0.030);
        let mut out = Vec::new();
        let err = run_cli(
            &args(&["stats", "--compare", old.as_str(), slow.as_str(), "--tolerance", "0.25"]),
            &mut out,
        )
        .expect_err("3x slowdown must fail");
        assert!(matches!(err, CliError::Regression(_)), "{err}");
        let printed = String::from_utf8(out).expect("utf8");
        assert!(printed.contains("REGRESSION"), "{printed}");
        assert!(printed.contains("qasm_simulator"), "{printed}");

        // A generous tolerance lets the same pair through.
        let text =
            run_ok(&["stats", "--compare", old.as_str(), slow.as_str(), "--tolerance", "5.0"]);
        assert!(text.contains("no regressions"), "{text}");
    }

    #[test]
    fn stats_compare_ignores_sub_noise_floor_jitter() {
        // Both measurements sit below the 0.5ms floor: a nominal 50x
        // "slowdown" must not fail the gate.
        let old = write_baseline("noise_old", 0.000_002);
        let new = write_baseline("noise_new", 0.000_1);
        let text = run_ok(&["stats", "--compare", old.as_str(), new.as_str()]);
        assert!(text.contains("no regressions"), "{text}");
    }

    #[test]
    fn stats_compare_rejects_bad_invocations() {
        let old = write_baseline("lonely", 0.01);
        assert!(matches!(run_err(&["stats", "--compare", old.as_str()]), CliError::Usage(_)));
        assert!(matches!(
            run_err(&["stats", "--compare", old.as_str(), "/nonexistent.json"]),
            CliError::Io(_)
        ));
        assert!(matches!(
            run_err(&["stats", "--compare", old.as_str(), old.as_str(), "--tolerance", "fast"]),
            CliError::Usage(_)
        ));
    }

    /// A self-cleaning temp directory for journal tests.
    struct TempDir {
        path: std::path::PathBuf,
    }
    impl TempDir {
        fn new(tag: &str) -> Self {
            let path = std::env::temp_dir().join(format!(
                "qukit_cli_test_{tag}_{}_{}",
                std::process::id(),
                std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .expect("clock")
                    .as_nanos()
            ));
            Self { path }
        }
        fn as_str(&self) -> &str {
            self.path.to_str().expect("utf8 path")
        }
    }
    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.path);
        }
    }

    #[test]
    fn jobs_journal_persists_and_second_run_deduplicates_by_key() {
        let file = write_bell();
        let dir = TempDir::new("journal");
        let text = run_ok(&[
            "jobs",
            file.as_str(),
            "--shots",
            "100",
            "--seed",
            "5",
            "--journal-dir",
            dir.as_str(),
            "--key",
            "bell-1",
        ]);
        assert!(text.contains("journal: replayed 0, recovered terminal 0"), "{text}");
        assert!(text.contains("status: DONE"), "{text}");
        assert!(dir.path.join("jobs.journal").exists(), "journal file must be written");

        // A fresh process replays the journal: the same key returns the
        // recovered job instead of re-running it.
        let text = run_ok(&[
            "jobs",
            file.as_str(),
            "--shots",
            "100",
            "--seed",
            "5",
            "--journal-dir",
            dir.as_str(),
            "--key",
            "bell-1",
        ]);
        assert!(text.contains("recovered terminal 1"), "{text}");
        assert!(text.contains("idempotency key 'bell-1' deduplicated"), "{text}");
        assert!(text.contains("status: DONE"), "{text}");
    }

    #[test]
    fn jobs_tenant_priority_and_admission_shed() {
        let file = write_bell();
        let text = run_ok(&[
            "jobs",
            file.as_str(),
            "--shots",
            "50",
            "--seed",
            "2",
            "--tenant",
            "alice",
            "--priority",
            "high",
        ]);
        assert!(text.contains("tenant: alice (priority high)"), "{text}");
        assert!(text.contains("status: DONE"), "{text}");

        // A zero pending cap sheds the submission with a typed status.
        let text = run_ok(&["jobs", file.as_str(), "--tenant", "bob", "--max-pending", "0"]);
        assert!(text.contains("status: REJECTED (shed by admission control)"), "{text}");

        assert!(matches!(
            run_err(&["jobs", file.as_str(), "--priority", "urgent"]),
            CliError::Usage(_)
        ));
    }

    #[test]
    fn jobs_cache_serves_second_run_from_cache() {
        let file = write_bell();
        let text = run_ok(&["jobs", file.as_str(), "--shots", "50", "--seed", "9", "--cache"]);
        assert!(
            text.contains("cache: second run (tenant default-rerun) served from cache: yes"),
            "{text}"
        );
    }

    #[test]
    fn jobs_trace_out_writes_a_valid_chrome_trace() {
        let _guard = obs_lock();
        let file = write_bell();
        let trace_file = temp_json("jobs_trace");
        let text = run_ok(&[
            "jobs",
            file.as_str(),
            "--shots",
            "50",
            "--seed",
            "9",
            "--cache",
            "--tenant",
            "alice",
            "--trace-out",
            trace_file.as_str(),
        ]);
        assert!(text.contains("trace: kept 2 of 2 traces"), "{text}");
        let written = std::fs::read_to_string(trace_file.as_str()).expect("trace file");
        qukit_obs::export::validate_chrome_trace(&written).expect("chrome trace schema-valid");
        // One waterfall executed, one was served from the cache.
        assert!(written.contains("job.attempt"), "{written}");
        assert!(written.contains("job.cache_hit"), "{written}");
    }

    #[test]
    fn trace_sampling_flags_require_trace_out() {
        assert!(matches!(run_err(&["jobs", "x.qasm", "--trace-slow-ms", "5"]), CliError::Usage(_)));
    }

    #[test]
    fn serve_metrics_serves_scrape_routes_for_a_bounded_run() {
        let _guard = obs_lock();
        // Bind an ephemeral port directly (the command path is the same
        // serve() the CLI calls; here we drive it through run_cli with
        // --for-ms so the command returns on its own).
        let text = run_ok(&["serve-metrics", "--addr", "127.0.0.1:0", "--for-ms", "50"]);
        assert!(text.contains("serving /metrics, /healthz, /traces/recent on http://"), "{text}");
        assert!(text.contains("served for 50ms, shut down"), "{text}");
    }

    #[test]
    fn bench_load_reports_service_metrics_and_valid_baseline() {
        let _guard = obs_lock();
        let out_file = temp_json("load");
        let text = run_ok(&[
            "bench",
            "--load",
            "--tenants",
            "2",
            "--jobs",
            "24",
            "--workers",
            "2",
            "--payloads",
            "3",
            "--shots",
            "32",
            "--seed",
            "11",
            "--json",
            "--out",
            out_file.as_str(),
        ]);
        assert!(text.contains("submitted 24"), "{text}");
        assert!(text.contains("latency p50"), "{text}");
        assert!(text.contains("cache hit rate"), "{text}");
        assert!(text.contains("lost 0"), "{text}");
        let written = std::fs::read_to_string(&out_file.path).expect("baseline written");
        let baseline =
            qukit_bench::baseline::Baseline::from_json(&written).expect("baseline validates");
        assert_eq!(baseline.entries.len(), 1);
        assert_eq!(baseline.entries[0].circuit, "load_t2_j24");
        assert!(baseline.entries[0].metrics.contains_key("service_p99_seconds"));

        assert!(matches!(run_err(&["bench", "--load", "--jobs", "0"]), CliError::Usage(_)));
    }

    #[test]
    fn bench_thread_sweep_emits_parallel_entries() {
        let _guard = obs_lock();
        let out_file = temp_json("bench_threads");
        run_ok(&[
            "bench",
            "--json",
            "--out",
            out_file.as_str(),
            "--shots",
            "16",
            "--repeats",
            "1",
            "--threads",
            "2",
        ]);
        let written = std::fs::read_to_string(&out_file.path).expect("baseline written");
        let baseline =
            qukit_bench::baseline::Baseline::from_json(&written).expect("baseline validates");
        for engine in ["qasm_simulator", "parallel_statevector[t=2]"] {
            assert!(
                baseline.entries.iter().any(|e| e.circuit == "qft_12" && e.engine == engine),
                "missing qft_12 on {engine}"
            );
        }
        assert!(
            !baseline.entries.iter().any(|e| e.engine == "parallel_statevector[t=4]"),
            "--threads 2 must cap the sweep"
        );
    }
}
