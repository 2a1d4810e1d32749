//! `sv_dense`: ideal dense runs, `execute(circuit, qasm_simulator, 1024)`
//! at the default configuration, closed loop.
//!
//! The narrow class (12–14 qubits, 64–256 KiB states) stays resident in
//! L2, so per-call overhead and in-cache kernels dominate. The wide class
//! (a GHZ and a mirror circuit on 24 qubits, a 256 MiB state) is bound by
//! memory traffic. The transpiler, the service and DD do nothing here.

use std::time::Instant;

use qukit::aer::simulator::QasmSimulator;
use qukit::execute::execute;
use qukit::provider::Provider;
use qukit::terra::complex::Complex;

use crate::gen::{self, Input, Kind, Rng};
use crate::report::{Ctx, Report, SHOTS};
use crate::{
    check, compiled_totals, enable_library_metrics, host, measured, mega_rate, passes, stats,
};

/// Seeded instances of each narrow kind at each width.
const VARIANTS: usize = 2;

/// Amplitude updates of one run: gates × 2^qubits.
fn work(input: &Input) -> f64 {
    input.gates() as f64 * 2f64.powi(input.qubits() as i32)
}

/// The workload.
pub fn run(ctx: &Ctx, report: &mut Report) {
    let mut rng = Rng::stream(ctx.seed, "sv_dense");
    let narrow = gen::narrow_set(&mut rng, VARIANTS);
    let wide = gen::wide_set(&mut rng);
    let provider = report.measure_setup(|_| {
        let provider = Provider::with_defaults();
        provider.get_backend("qasm_simulator").expect("default simulator");
        provider
    });
    let backend = provider.get_backend("qasm_simulator").expect("default simulator");

    // Narrow class: whole passes; the first output of each input is kept
    // for the reference check.
    let mut first = vec![None; narrow.len()];
    let mut narrow_ms = Vec::new();
    let mut narrow_rate = Vec::new();
    let budget = ctx.budget(if ctx.trace { 0.25 } else { 0.4 });
    passes(&mut rng, narrow.len(), budget, |i| {
        let (counts, secs) =
            ctx.rec.time("core.execute", i as u64, || execute(&narrow[i].circuit, backend, SHOTS));
        let counts = report.record_job(counts, &format!("narrow job {i}"));
        if first[i].is_none() {
            first[i] = counts;
        }
        narrow_ms.push(secs * 1e3);
        narrow_rate.push(mega_rate(work(&narrow[i]), secs));
    });
    for (i, counts) in first.iter().enumerate() {
        if let Some(counts) = counts {
            let input = &narrow[i];
            let probs = check::reference_probs(input);
            report.check(
                &format!("narrow input {i} vs reference"),
                check::counts_match(counts, &probs, input.qubits()),
            );
        }
    }

    if ctx.trace {
        traced(ctx, report, &narrow, &wide, backend, &narrow_ms, &mut rng);
        return;
    }

    // Wide class: each input once.
    let mut wide_rate = Vec::new();
    for (i, input) in wide.iter().enumerate() {
        let (counts, secs) = ctx
            .rec
            .time("core.execute", 1000 + i as u64, || execute(&input.circuit, backend, SHOTS));
        if let Some(counts) = report.record_job(counts, &format!("wide job {i}")) {
            report.check(
                &format!("wide input {i} ({:?})", input.kind),
                check::known_counts(input, &counts),
            );
        }
        wide_rate.push(mega_rate(work(input), secs));
    }

    report.set_closed_loop(&narrow_ms, stats::pass_window(narrow.len()));
    report.set_geomean("light_work_rate", "M/s", narrow_rate);
    report.set_geomean("heavy_work_rate", "M/s", wide_rate);
    let (cx, depth) = compiled_totals(backend, narrow.iter().chain(&wide));
    report.set("cx_out", "count", cx, vec![]);
    report.set("depth_out", "count", depth, vec![]);
}

/// Per-layer numbers: direct `QasmSimulator::run` calls for the narrow
/// class; the wide class's per-gate time from the mirror circuit (whose
/// samples all land on index 0, so sampling costs next to nothing), its
/// computed bandwidth, and a copy probe at the same array size.
fn traced(
    ctx: &Ctx,
    report: &mut Report,
    narrow: &[Input],
    wide: &[Input],
    backend: &dyn qukit::backend::Backend,
    untraced_ms: &[f64],
    rng: &mut Rng,
) {
    enable_library_metrics();
    let (mut exec_ms, mut call_ms) = (Vec::new(), Vec::new());
    passes(rng, narrow.len(), ctx.budget(0.25), |i| {
        let id = i as u64;
        let (counts, secs) =
            ctx.rec.time("core.execute", id, || execute(&narrow[i].circuit, backend, SHOTS));
        report.record_job(counts, &format!("traced narrow job {i}"));
        exec_ms.push(secs * 1e3);
        let circuit = measured(&narrow[i]);
        let (counts, secs) =
            ctx.rec.time("aer.run", id, || QasmSimulator::new().run(&circuit, SHOTS));
        report.record_job(counts, &format!("traced narrow call {i}"));
        call_ms.push(secs * 1e3);
    });
    report.set_median("aer.narrow_call_ms_p50", "ms", call_ms);

    let mut gate_ms = None;
    let mut ghz = None;
    for (i, input) in wide.iter().enumerate() {
        let (counts, secs) = ctx
            .rec
            .time("core.execute", 1000 + i as u64, || execute(&input.circuit, backend, SHOTS));
        if let Some(counts) = report.record_job(counts, &format!("traced wide job {i}")) {
            report.check(&format!("traced wide input {i}"), check::known_counts(input, &counts));
        }
        match input.kind {
            Kind::Mirror => gate_ms = Some(secs * 1e3 / input.gates() as f64),
            Kind::Ghz { .. } => ghz = Some((secs * 1e3, input.gates() as f64)),
            _ => {}
        }
    }
    let gate_ms = gate_ms.expect("the wide set has a mirror circuit");
    let (ghz_ms, ghz_gates) = ghz.expect("the wide set has a GHZ circuit");
    // Computed traffic: each gate reads and writes every amplitude once.
    let state_bytes = (std::mem::size_of::<Complex>() << gen::WIDE_QUBITS) as f64;
    let wide_gbps = 2.0 * state_bytes / (gate_ms / 1e3) / 1e9;
    let copy_gbps = copy_probe(state_bytes as usize);
    report.set("aer.wide_gate_ms", "ms", gate_ms, vec![]);
    report.set("aer.wide_sample_ms", "ms", (ghz_ms - ghz_gates * gate_ms).max(0.0), vec![]);
    report.set("aer.wide_gbps", "GB/s", wide_gbps, vec![]);
    report.set("aer.copy_gbps", "GB/s", copy_gbps, vec![]);
    report.set("aer.wide_bw_frac", "ratio", wide_gbps / copy_gbps, vec![]);
    let llc = host::HostStamp::collect().llc;
    report.note(format!(
        "aer.wide_*: computed bytes (2 × {:.0} MiB per gate) over measured time; the {:.0} MiB state {} the LLC lscpu reports ({llc}), so the copy ratio is not a DRAM-bandwidth ratio",
        state_bytes / 1048576.0,
        state_bytes / 1048576.0,
        match host::cache_mib(&llc) {
            Some(mib) if state_bytes / 1048576.0 < mib => "fits below",
            Some(_) => "exceeds",
            None => "is compared with",
        }
    ));
    report.set_overhead(untraced_ms, exec_ms);
}

/// Copy bandwidth at `bytes` per array, computed as read + write bytes
/// over the best of three copies, in GB/s.
fn copy_probe(bytes: usize) -> f64 {
    let len = bytes / std::mem::size_of::<f64>();
    let src: Vec<f64> = (0..len).map(|i| i as f64).collect();
    let mut dst = vec![0.0f64; len];
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        dst.copy_from_slice(&src);
        best = best.min(start.elapsed().as_secs_f64());
        std::hint::black_box(&dst);
    }
    2.0 * bytes as f64 / best / 1e9
}
