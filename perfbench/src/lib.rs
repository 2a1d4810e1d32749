//! Seeded end-to-end and per-layer benchmark of the qukit library defaults.
//!
//! Four workloads follow the paper's user flows: a multi-tenant job
//! service under an open loop (`svc_open`), `execute` on the noisy fake
//! IBM QX devices (`device_noisy`), dense statevector runs on the ideal
//! simulator (`sv_dense`) and decision-diagram runs (`dd_sim`). Every input
//! is generated from the run's seed ([`gen`]), every output is checked
//! outside the timed region ([`check`]), and the result is one JSON line
//! ([`report`]). See `perfbench/README.md` for what each metric means on
//! each workload.

use std::time::{Duration, Instant};

use qukit::backend::Backend;

pub mod check;
pub mod dd;
pub mod dense;
pub mod device;
pub mod gen;
pub mod host;
pub mod report;
pub mod stats;
pub mod svc;
pub mod trace;

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: &[&str] = &["svc_open", "device_noisy", "sv_dense", "dd_sim"];

/// `input` with every qubit measured, as `execute` submits it.
pub fn measured(input: &gen::Input) -> qukit::QuantumCircuit {
    let mut c = input.circuit.clone();
    c.measure_all();
    c
}

/// Exact CX count and depth, summed over `inputs`, of the circuits
/// `backend` actually runs (its own compilation of each measured input;
/// the identity for simulators).
pub fn compiled_totals<'a>(
    backend: &dyn Backend,
    inputs: impl IntoIterator<Item = &'a gen::Input>,
) -> (f64, f64) {
    let (mut cx, mut depth) = (0usize, 0usize);
    for input in inputs {
        let compiled = backend.prepare_circuit(&measured(input)).expect("inputs fit the backend");
        cx += cx_count(&compiled);
        depth += compiled.depth();
    }
    (cx as f64, depth as f64)
}

/// Number of CX gates in `circuit`.
pub fn cx_count(circuit: &qukit::QuantumCircuit) -> usize {
    circuit.count_ops().get("cx").copied().unwrap_or(0)
}

/// Turns the library's own metrics and spans on, from a clean registry.
/// Only the traced run does this; untraced runs measure the library with
/// its instrumentation off, as it ships.
pub fn enable_library_metrics() {
    qukit_obs::reset();
    qukit_obs::set_enabled(true);
}

/// Closed loop: runs whole passes over `0..len` in a seeded order per
/// pass until `budget` is spent (at least one pass), calling `job` for
/// each index. Whole passes keep the mix of a run fixed.
pub fn passes(rng: &mut gen::Rng, len: usize, budget: Duration, mut job: impl FnMut(usize)) {
    let start = Instant::now();
    let mut order: Vec<usize> = (0..len).collect();
    loop {
        rng.shuffle(&mut order);
        for &i in &order {
            job(i);
        }
        if start.elapsed() >= budget {
            break;
        }
    }
}

/// Work per second in millions: `work` units over `seconds`.
pub fn mega_rate(work: f64, seconds: f64) -> f64 {
    if seconds > 0.0 {
        work / seconds / 1e6
    } else {
        0.0
    }
}
