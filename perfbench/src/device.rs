//! `device_noisy`: the paper's flow, `execute(circuit, ibmqx4|ibmqx5,
//! 1024)` on the default noisy fake devices, closed loop with one caller.
//!
//! Every job starts from a cold transpile cache, so the transpiler, the
//! router and the noisy trajectory engine all do their work. Routing
//! quality feeds simulation cost: every extra CX is applied in all 1024
//! trajectories.

use qukit::aer::noise::NoiseModel;
use qukit::execute::execute;
use qukit::provider::Provider;
use qukit::terra::transpiler::{self, TranspileOptions};
use qukit::FakeDevice;

use crate::gen::{self, Input, Rng};
use crate::report::{Ctx, Report, PASSES, SHOTS};
use crate::{check, cx_count, enable_library_metrics, measured, mega_rate, passes, stats};

/// Seeded instances of each circuit kind at each width.
const VARIANTS: usize = 2;
/// Logical width from which a circuit belongs to the heavy class.
const HEAVY_QUBITS: usize = 6;

/// Device for input `i`: 6-qubit circuits need the 16-qubit `ibmqx5`;
/// narrower ones alternate between `ibmqx4` and `ibmqx5`.
fn device_of(i: usize, input: &Input) -> &'static str {
    if input.qubits() >= HEAVY_QUBITS || i % 2 == 1 {
        "ibmqx5"
    } else {
        "ibmqx4"
    }
}

/// Simulated work of one job: shots × compiled gates × 2^(physical qubits
/// the compiled circuit touches), the state the trajectories evolve.
fn job_work(compiled: &qukit::QuantumCircuit) -> f64 {
    let mut used = vec![false; compiled.num_qubits()];
    let mut gates = 0usize;
    for inst in compiled.instructions() {
        for &q in &inst.qubits {
            used[q] = true;
        }
        if inst.op.is_gate() {
            gates += 1;
        }
    }
    let width = used.iter().filter(|&&u| u).count() as i32;
    SHOTS as f64 * gates as f64 * 2f64.powi(width)
}

fn clear_transpile_cache() {
    transpiler::cache::global().clear();
}

/// The workload.
pub fn run(ctx: &Ctx, report: &mut Report) {
    let mut rng = Rng::stream(ctx.seed, "device_noisy");
    let inputs = gen::device_set(&mut rng, VARIANTS);
    let provider = report.measure_setup(|_| {
        let provider = Provider::with_defaults();
        for name in ["ibmqx4", "ibmqx5"] {
            provider.get_backend(name).expect("default device");
        }
        provider
    });
    let backend =
        |i: usize| provider.get_backend(device_of(i, &inputs[i])).expect("default device");

    // Exact compiled totals and per-job work, outside the timed region.
    let (mut cx_out, mut depth_out) = (0, 0);
    let mut work = Vec::with_capacity(inputs.len());
    for (i, input) in inputs.iter().enumerate() {
        clear_transpile_cache();
        let compiled = backend(i).prepare_circuit(&measured(input)).expect("inputs fit the device");
        cx_out += cx_count(&compiled);
        depth_out += compiled.depth();
        work.push(job_work(&compiled));
    }

    let mut latency_ms = Vec::new();
    let (mut light, mut heavy) = (Vec::new(), Vec::new());
    let budget = ctx.budget(if ctx.trace { 0.25 } else { 0.9 });
    passes(&mut rng, inputs.len(), budget, |i| {
        clear_transpile_cache();
        let (counts, secs) = ctx
            .rec
            .time("core.execute", i as u64, || execute(&inputs[i].circuit, backend(i), SHOTS));
        report.record_job(counts, &format!("device job {i}"));
        latency_ms.push(secs * 1e3);
        let class = if inputs[i].qubits() >= HEAVY_QUBITS { &mut heavy } else { &mut light };
        class.push(mega_rate(work[i], secs));
    });

    if ctx.trace {
        let growth = cx_out as f64 / unrouted_cx(&inputs).max(1) as f64;
        report.set("terra.cx_growth", "ratio", growth, vec![]);
        traced(ctx, report, &inputs, &provider, &work, &latency_ms, &mut rng);
    } else {
        report.set_closed_loop(&latency_ms, stats::pass_window(inputs.len()));
        report.set_geomean("light_work_rate", "M/s", light);
        report.set_geomean("heavy_work_rate", "M/s", heavy);
        report.set("cx_out", "count", cx_out as f64, vec![]);
        report.set("depth_out", "count", depth_out as f64, vec![]);
    }

    // The same circuits on a noiseless ibmqx5 must reproduce the reference
    // distribution: the transpiler preserved their meaning.
    let noiseless = FakeDevice::ibmqx5().with_noise(NoiseModel::new());
    for (i, input) in inputs.iter().enumerate() {
        clear_transpile_cache();
        let outcome = execute(&input.circuit, &noiseless, SHOTS)
            .map_err(|e| e.to_string())
            .and_then(|counts| {
                check::counts_match(&counts, &check::reference_probs(input), input.qubits())
            });
        report.check(&format!("device input {i} on noiseless ibmqx5"), outcome);
    }
}

/// CX total of `inputs` compiled with no coupling constraint: the base of
/// `terra.cx_growth`.
fn unrouted_cx(inputs: &[Input]) -> usize {
    let free =
        TranspileOptions { optimization_level: 2, basis_u: true, ..TranspileOptions::default() };
    inputs
        .iter()
        .map(|input| {
            let unrouted = transpiler::transpile(&measured(input), &free).expect("unconstrained");
            cx_count(&unrouted.circuit)
        })
        .sum()
}

/// Per-layer numbers: cold transpile, then the noisy run with the
/// transpile cached, per job; pass timings from the library's own series.
fn traced(
    ctx: &Ctx,
    report: &mut Report,
    inputs: &[Input],
    provider: &Provider,
    work: &[f64],
    untraced_ms: &[f64],
    rng: &mut Rng,
) {
    let backend =
        |i: usize| provider.get_backend(device_of(i, &inputs[i])).expect("default device");
    enable_library_metrics();
    let (mut exec_ms, mut transpile_ms, mut run_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut noisy_gups = Vec::new();
    passes(rng, inputs.len(), ctx.budget(0.25), |i| {
        let id = i as u64;
        let circuit = measured(&inputs[i]);
        clear_transpile_cache();
        let (counts, secs) =
            ctx.rec.time("core.execute", id, || execute(&inputs[i].circuit, backend(i), SHOTS));
        exec_ms.push(secs * 1e3);
        report.record_job(counts, &format!("traced device job {i}"));
        clear_transpile_cache();
        let (_, secs) =
            ctx.rec.time("terra.transpile", id, || backend(i).prepare_circuit(&circuit));
        transpile_ms.push(secs * 1e3);
        let (counts, secs) = ctx.rec.time("aer.noisy_run", id, || backend(i).run(&circuit, SHOTS));
        run_ms.push(secs * 1e3);
        report.record_job(counts, &format!("traced noisy run {i}"));
        noisy_gups.push(mega_rate(work[i], secs) / 1e3);
    });

    report.set_median("terra.transpile_ms_p50", "ms", transpile_ms);
    report.set_median("aer.noisy_run_ms_p50", "ms", run_ms);
    report.set_geomean("aer.noisy_gups", "G/s", noisy_gups);
    let snapshot = qukit_obs::registry().snapshot();
    for pass in PASSES {
        let series = format!("qukit_terra_pass_seconds{{pass=\"{pass}\"}}");
        let mean_ms = snapshot.histograms.get(&series).map_or(0.0, |h| h.mean() * 1e3);
        report.set(&format!("terra.pass_ms.{pass}"), "ms", mean_ms, vec![]);
    }
    report.set_overhead(untraced_ms, exec_ms);
}
