//! `dd_sim`: `execute(circuit, dd_simulator, 1024)`, closed loop.
//!
//! The struct class (GHZ at 32–64 qubits, QFT and BV at 16–24 qubits on
//! basis states) keeps decision diagrams compact, so table reuse
//! dominates. The deep class (one 8-qubit Clifford+T stream of 20k gates)
//! grows the tables, so garbage collection and weight-table growth
//! dominate. Nothing else in the stack runs here.

use qukit::dd::simulator::DdSimulator;
use qukit::execute::execute;
use qukit::provider::Provider;
use qukit::Counts;

use crate::gen::{self, Input, Kind, Rng};
use crate::report::{Ctx, Report, SHOTS};
use crate::{check, compiled_totals, enable_library_metrics, mega_rate, passes, stats};

/// Seeded basis indices probed per struct input, besides the special ones.
const PROBES: usize = 16;

/// Basis indices whose amplitudes are checked for `input`.
fn probe_indices(input: &Input, rng: &mut Rng) -> Vec<u64> {
    let n = input.qubits();
    let mask = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
    let mut indices = vec![0, mask];
    if let Kind::Bv { answer } = input.kind {
        indices.push(answer);
    }
    indices.extend((0..PROBES).map(|_| rng.next_u64() & mask));
    indices
}

/// Checks a struct input's amplitudes on a separate `DdSimulator` run.
fn check_amplitudes(report: &mut Report, input: &Input, i: usize, rng: &mut Rng) {
    let outcome =
        DdSimulator::new().run(&input.circuit).map_err(|e| e.to_string()).and_then(|state| {
            check::amplitudes_match(input, &probe_indices(input, rng), |k| {
                state.amplitude(k as usize)
            })
        });
    report.check(&format!("struct input {i} amplitudes"), outcome);
}

/// The workload.
pub fn run(ctx: &Ctx, report: &mut Report) {
    let mut rng = Rng::stream(ctx.seed, "dd_sim");
    let structured = gen::struct_set(&mut rng);
    let deep = gen::deep_stream(&mut rng);
    let provider = report.measure_setup(|_| {
        let provider = Provider::with_defaults();
        provider.get_backend("dd_simulator").expect("default DD simulator");
        provider
    });
    let backend = provider.get_backend("dd_simulator").expect("default DD simulator");

    let mut first: Vec<Option<Counts>> = vec![None; structured.len()];
    let mut struct_ms = Vec::new();
    let mut struct_rate = Vec::new();
    let budget = ctx.budget(if ctx.trace { 0.25 } else { 0.5 });
    passes(&mut rng, structured.len(), budget, |i| {
        let (counts, secs) = ctx
            .rec
            .time("core.execute", i as u64, || execute(&structured[i].circuit, backend, SHOTS));
        let counts = report.record_job(counts, &format!("struct job {i}"));
        if first[i].is_none() {
            first[i] = counts;
        }
        struct_ms.push(secs * 1e3);
        struct_rate.push(mega_rate(structured[i].gates() as f64, secs));
    });
    for (i, input) in structured.iter().enumerate() {
        if let Some(counts) = &first[i] {
            report.check(&format!("struct input {i} counts"), check::known_counts(input, counts));
        }
        check_amplitudes(report, input, i, &mut rng);
    }

    if ctx.trace {
        traced(ctx, report, &structured, &deep, backend, &struct_ms, &mut rng);
        return;
    }

    let (counts, deep_s) =
        ctx.rec.time("core.execute", 1000, || execute(&deep.circuit, backend, SHOTS));
    if let Some(counts) = report.record_job(counts, "deep job") {
        let probs = check::reference_probs(&deep);
        report
            .check("deep counts vs reference", check::counts_match(&counts, &probs, deep.qubits()));
    }
    check_deep_state(report, &deep);

    report.set_closed_loop(&struct_ms, stats::pass_window(structured.len()));
    report.set_geomean("light_work_rate", "M/s", struct_rate);
    report.set_geomean("heavy_work_rate", "M/s", vec![mega_rate(deep.gates() as f64, deep_s)]);
    let (cx, depth) = compiled_totals(backend, structured.iter().chain([&deep]));
    report.set("cx_out", "count", cx, vec![]);
    report.set("depth_out", "count", depth, vec![]);
}

/// The deep stream's final state must match the dense reference to 1e-10.
/// Returns the `DdSimulator::run` time in seconds.
fn check_deep_state(report: &mut Report, deep: &Input) -> f64 {
    let start = std::time::Instant::now();
    let state = DdSimulator::new().run(&deep.circuit);
    let secs = start.elapsed().as_secs_f64();
    let outcome = state
        .map_err(|e| e.to_string())
        .and_then(|state| check::statevector_match(deep, &state.to_statevector()));
    report.check("deep state vs dense reference", outcome);
    secs
}

/// Per-layer numbers: direct `DdSimulator::run` calls (so `execute` minus
/// `run` is the sampling cost), per-gate cost at the head of the deep
/// stream and over all of it, and the library's DD counters.
fn traced(
    ctx: &Ctx,
    report: &mut Report,
    structured: &[Input],
    deep: &Input,
    backend: &dyn qukit::backend::Backend,
    untraced_ms: &[f64],
    rng: &mut Rng,
) {
    enable_library_metrics();
    let peak_nodes = || qukit_obs::gauge("qukit_dd_peak_nodes").value();
    let mut peak: f64 = 0.0;
    let (mut exec_ms, mut gate_us, mut sample_ms) = (Vec::new(), Vec::new(), Vec::new());
    passes(rng, structured.len(), ctx.budget(0.25), |i| {
        let id = i as u64;
        let input = &structured[i];
        let (counts, exec_s) =
            ctx.rec.time("core.execute", id, || execute(&input.circuit, backend, SHOTS));
        report.record_job(counts, &format!("traced struct job {i}"));
        peak = peak.max(peak_nodes());
        let (state, run_s) = ctx.rec.time("dd.run", id, || DdSimulator::new().run(&input.circuit));
        report.check(&format!("traced struct run {i}"), state.map(drop).map_err(|e| e.to_string()));
        exec_ms.push(exec_s * 1e3);
        gate_us.push(run_s * 1e6 / input.gates() as f64);
        sample_ms.push((exec_s - run_s) * 1e3);
    });

    let (counts, _) = ctx.rec.time("core.execute", 1000, || execute(&deep.circuit, backend, SHOTS));
    report.record_job(counts, "traced deep job");
    peak = peak.max(peak_nodes());
    let head = gen::prefix(deep, gen::DEEP_HEAD_GATES);
    let (state, head_s) = ctx.rec.time("dd.run", 1001, || DdSimulator::new().run(&head.circuit));
    report.check("traced deep head run", state.map(drop).map_err(|e| e.to_string()));
    let start = std::time::Instant::now();
    let full_s = check_deep_state(report, deep);
    ctx.rec.record("dd.run", 1002, start, start + std::time::Duration::from_secs_f64(full_s));
    peak = peak.max(peak_nodes());

    let snapshot = qukit_obs::registry().snapshot();
    let counter = |name: &str| snapshot.counters.get(name).copied().unwrap_or(0) as f64;
    let ratio =
        |hits: &str, misses: &str| counter(hits) / (counter(hits) + counter(misses)).max(1.0);
    report.set_median("dd.struct_gate_us", "us", gate_us);
    report.set("dd.deep_gate_us_head", "us", head_s * 1e6 / head.gates() as f64, vec![]);
    report.set("dd.deep_gate_us_full", "us", full_s * 1e6 / deep.gates() as f64, vec![]);
    report.set("dd.peak_nodes", "count", peak, vec![]);
    report.set(
        "dd.compute_hit_ratio",
        "ratio",
        ratio("qukit_dd_compute_hits_total", "qukit_dd_compute_misses_total"),
        vec![],
    );
    report.set(
        "dd.unique_hit_ratio",
        "ratio",
        ratio("qukit_dd_unique_hits_total", "qukit_dd_unique_misses_total"),
        vec![],
    );
    report.set("dd.gc_runs", "count", counter("qukit_dd_gc_runs_total"), vec![]);
    report.set_median("dd.sample_ms", "ms", sample_ms);
    report.set_overhead(untraced_ms, exec_ms);
}
