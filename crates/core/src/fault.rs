//! Fault injection and graceful degradation for backends.
//!
//! Real IBM Q devices fail in ways a local reproduction never would:
//! submissions bounce off a busy queue, devices hang mid-calibration,
//! results occasionally come back garbled. [`FaultInjectingBackend`]
//! reproduces those failure modes *deterministically* so every recovery
//! path of the [job service](crate::job) is testable, and
//! [`FallbackChain`] degrades gracefully across backends the way a user
//! falls back from a specialized simulator to a general one.

use crate::backend::Backend;
use crate::error::{QukitError, Result};
use qukit_aer::counts::Counts;
use qukit_obs::hash::{splitmix64, SPLITMIX64_GAMMA};
use qukit_terra::circuit::QuantumCircuit;
use qukit_terra::coupling::CouplingMap;
use std::sync::Mutex;
use std::time::Duration;

/// What a [`FaultInjectingBackend`] does to each `run` call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultMode {
    /// The first `n` calls fail with [`QukitError::Transient`]; later
    /// calls pass through (models a queue that recovers).
    FailTimes(u32),
    /// Every call fails with [`QukitError::Transient`] (a dead device).
    AlwaysFail,
    /// Every call sleeps for the given duration before passing through
    /// (models a hung device; pair with a per-attempt timeout).
    Hang(Duration),
    /// Calls pass through, but the returned histogram is deterministically
    /// corrupted (outcome bits XOR-flipped by a seeded mask) — models
    /// garbled readout without changing the shot total.
    CorruptCounts,
}

/// A decorator that injects seeded, deterministic faults in front of any
/// backend. It keeps the inner backend's name so providers and jobs
/// address it transparently.
///
/// # Examples
///
/// ```
/// use qukit::backend::{Backend, QasmSimulatorBackend};
/// use qukit::fault::{FaultInjectingBackend, FaultMode};
/// use qukit_terra::circuit::QuantumCircuit;
///
/// let flaky = FaultInjectingBackend::new(
///     Box::new(QasmSimulatorBackend::new().with_seed(1)),
///     FaultMode::FailTimes(2),
/// );
/// let mut bell = QuantumCircuit::with_size(2, 2);
/// bell.h(0).unwrap();
/// bell.cx(0, 1).unwrap();
/// bell.measure(0, 0).unwrap();
/// bell.measure(1, 1).unwrap();
/// assert!(flaky.run(&bell, 100).is_err()); // injected
/// assert!(flaky.run(&bell, 100).is_err()); // injected
/// assert_eq!(flaky.run(&bell, 100).unwrap().total(), 100); // recovered
/// ```
pub struct FaultInjectingBackend {
    inner: Box<dyn Backend>,
    mode: FaultMode,
    seed: u64,
    calls: Mutex<u32>,
}

impl FaultInjectingBackend {
    /// Wraps `inner` with the given fault mode (corruption seed 0).
    pub fn new(inner: Box<dyn Backend>, mode: FaultMode) -> Self {
        Self { inner, mode, seed: 0, calls: Mutex::new(0) }
    }

    /// Sets the seed driving [`FaultMode::CorruptCounts`] (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// How many times `run` has been called (injected failures included).
    pub fn calls(&self) -> u32 {
        *self.calls.lock().expect("fault counter lock")
    }

    fn corrupt(&self, counts: Counts) -> Counts {
        let bits = counts.num_clbits().max(1) as u32;
        // A seeded nonzero mask: flips at least one readout bit of every
        // outcome while preserving the shot total.
        let mask = {
            let raw = splitmix64(&mut { self.seed }) & ((1u64 << bits.min(63)) - 1).max(1);
            if raw == 0 {
                1
            } else {
                raw
            }
        };
        let mut corrupted = Counts::new(counts.num_clbits());
        for (outcome, n) in counts.iter() {
            corrupted.record_n(outcome ^ mask, n);
        }
        corrupted
    }
}

impl Backend for FaultInjectingBackend {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn num_qubits(&self) -> usize {
        self.inner.num_qubits()
    }

    fn coupling_map(&self) -> Option<&CouplingMap> {
        self.inner.coupling_map()
    }

    fn run(&self, circuit: &QuantumCircuit, shots: usize) -> Result<Counts> {
        let call = {
            let mut calls = self.calls.lock().expect("fault counter lock");
            *calls += 1;
            *calls
        };
        match self.mode {
            FaultMode::FailTimes(n) if call <= n => {
                qukit_obs::counter_inc("qukit_core_fault_injections_total");
                Err(QukitError::Transient {
                    msg: format!(
                        "injected fault: call {call} of {n} forced failures on '{}'",
                        self.name()
                    ),
                })
            }
            FaultMode::AlwaysFail => {
                qukit_obs::counter_inc("qukit_core_fault_injections_total");
                Err(QukitError::Transient {
                    msg: format!("injected fault: '{}' is configured to always fail", self.name()),
                })
            }
            FaultMode::Hang(delay) => {
                qukit_obs::counter_inc("qukit_core_fault_injections_total");
                std::thread::sleep(delay);
                self.inner.run(circuit, shots)
            }
            FaultMode::CorruptCounts => {
                qukit_obs::counter_inc("qukit_core_fault_injections_total");
                Ok(self.corrupt(self.inner.run(circuit, shots)?))
            }
            FaultMode::FailTimes(_) => self.inner.run(circuit, shots),
        }
    }

    fn executed_on(&self) -> Option<String> {
        self.inner.executed_on()
    }

    fn set_parallel(&mut self, config: qukit_aer::parallel::ParallelConfig) {
        self.inner.set_parallel(config);
    }

    /// Pass-through faults do not change the success distribution, so
    /// the inner fingerprint stands (the decorator keeps the inner
    /// name, making it the provider-visible identity anyway). Count
    /// corruption *does* change outcomes, so it salts the hash.
    fn fingerprint(&self) -> u64 {
        match self.mode {
            FaultMode::CorruptCounts => self
                .inner
                .fingerprint()
                .wrapping_mul(SPLITMIX64_GAMMA)
                .wrapping_add(splitmix64(&mut { self.seed })),
            _ => self.inner.fingerprint(),
        }
    }
}

/// An ordered chain of backends tried left to right: the first success
/// wins, and the backend that served the request is reported through
/// [`Backend::executed_on`] so jobs can record it.
///
/// This models graceful degradation — e.g. `dd_simulator` (fast, but
/// unitary circuits only) falling back to `qasm_simulator` when it
/// rejects a non-unitary instruction.
///
/// # Examples
///
/// ```
/// use qukit::backend::{Backend, DdSimulatorBackend, QasmSimulatorBackend};
/// use qukit::fault::FallbackChain;
/// use qukit_terra::circuit::QuantumCircuit;
///
/// let chain = FallbackChain::new("dd_with_fallback")
///     .then(Box::new(DdSimulatorBackend::new().with_seed(1)))
///     .then(Box::new(QasmSimulatorBackend::new().with_seed(1)));
/// // Reset is non-unitary: the DD simulator rejects it, the chain
/// // transparently degrades to the dense simulator.
/// let mut circ = QuantumCircuit::with_size(1, 1);
/// circ.x(0).unwrap();
/// circ.reset(0).unwrap();
/// circ.measure(0, 0).unwrap();
/// let counts = chain.run(&circ, 50).unwrap();
/// assert_eq!(counts.get("0"), 50);
/// assert_eq!(chain.executed_on().as_deref(), Some("qasm_simulator"));
/// ```
pub struct FallbackChain {
    name: String,
    backends: Vec<Box<dyn Backend>>,
    last_used: Mutex<Option<String>>,
}

impl FallbackChain {
    /// An empty chain with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Self { name: name.into(), backends: Vec::new(), last_used: Mutex::new(None) }
    }

    /// Appends a backend to the chain (builder style).
    pub fn then(mut self, backend: Box<dyn Backend>) -> Self {
        self.backends.push(backend);
        self
    }

    /// The names of the chained backends, in fallback order.
    pub fn members(&self) -> Vec<&str> {
        self.backends.iter().map(|b| b.name()).collect()
    }
}

impl Backend for FallbackChain {
    fn name(&self) -> &str {
        &self.name
    }

    /// The widest member: the chain admits a circuit if any member might.
    fn num_qubits(&self) -> usize {
        self.backends.iter().map(|b| b.num_qubits()).max().unwrap_or(0)
    }

    fn run(&self, circuit: &QuantumCircuit, shots: usize) -> Result<Counts> {
        let mut errors: Vec<String> = Vec::new();
        for backend in &self.backends {
            match backend.run(circuit, shots) {
                Ok(counts) => {
                    let served = backend.executed_on().unwrap_or_else(|| backend.name().to_owned());
                    *self.last_used.lock().expect("fallback lock") = Some(served);
                    return Ok(counts);
                }
                Err(e) => {
                    qukit_obs::counter_inc("qukit_core_fallback_switches_total");
                    errors.push(format!("{}: {e}", backend.name()));
                }
            }
        }
        *self.last_used.lock().expect("fallback lock") = None;
        if self.backends.is_empty() {
            return Err(QukitError::Backend {
                msg: format!("fallback chain '{}' has no backends", self.name),
            });
        }
        // Every member failed. If all failures were transient the whole
        // chain is worth retrying; report it as transient so the retry
        // layer composes with fallback.
        Err(QukitError::Transient {
            msg: format!("all backends in chain '{}' failed: [{}]", self.name, errors.join("; ")),
        })
    }

    fn executed_on(&self) -> Option<String> {
        self.last_used.lock().expect("fallback lock").clone()
    }

    fn set_parallel(&mut self, config: qukit_aer::parallel::ParallelConfig) {
        for backend in &mut self.backends {
            backend.set_parallel(config);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{DdSimulatorBackend, QasmSimulatorBackend, StabilizerBackend};

    fn bell() -> QuantumCircuit {
        let mut circ = QuantumCircuit::with_size(2, 2);
        circ.h(0).unwrap();
        circ.cx(0, 1).unwrap();
        circ.measure(0, 0).unwrap();
        circ.measure(1, 1).unwrap();
        circ
    }

    #[test]
    fn fail_times_recovers_after_n_calls() {
        let flaky = FaultInjectingBackend::new(
            Box::new(QasmSimulatorBackend::new().with_seed(3)),
            FaultMode::FailTimes(2),
        );
        assert_eq!(flaky.name(), "qasm_simulator");
        for _ in 0..2 {
            let err = flaky.run(&bell(), 100).unwrap_err();
            assert!(err.is_retryable(), "injected failure must be transient");
            assert!(err.to_string().contains("injected fault"));
        }
        let counts = flaky.run(&bell(), 100).unwrap();
        assert_eq!(counts.total(), 100);
        assert_eq!(flaky.calls(), 3);
    }

    #[test]
    fn always_fail_never_recovers() {
        let dead = FaultInjectingBackend::new(
            Box::new(QasmSimulatorBackend::new().with_seed(3)),
            FaultMode::AlwaysFail,
        );
        for _ in 0..5 {
            assert!(dead.run(&bell(), 10).is_err());
        }
        assert_eq!(dead.calls(), 5);
    }

    #[test]
    fn corrupt_counts_is_deterministic_and_preserves_total() {
        let backend = || {
            FaultInjectingBackend::new(
                Box::new(QasmSimulatorBackend::new().with_seed(9)),
                FaultMode::CorruptCounts,
            )
            .with_seed(4)
        };
        let clean = QasmSimulatorBackend::new().with_seed(9).run(&bell(), 400).unwrap();
        let a = backend().run(&bell(), 400).unwrap();
        let b = backend().run(&bell(), 400).unwrap();
        assert_eq!(a.total(), 400, "corruption preserves shot totals");
        let outcomes = |c: &Counts| {
            let mut v: Vec<(u64, usize)> = c.iter().collect();
            v.sort_unstable();
            v
        };
        assert_eq!(outcomes(&a), outcomes(&b), "same seed, same corruption");
        assert_ne!(outcomes(&a), outcomes(&clean), "corruption changed the histogram");
    }

    #[test]
    fn hang_mode_delays_then_succeeds() {
        let slow = FaultInjectingBackend::new(
            Box::new(QasmSimulatorBackend::new().with_seed(1)),
            FaultMode::Hang(Duration::from_millis(30)),
        );
        let t0 = std::time::Instant::now();
        let counts = slow.run(&bell(), 50).unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(30));
        assert_eq!(counts.total(), 50);
    }

    #[test]
    fn fallback_chain_degrades_to_capable_backend() {
        let chain = FallbackChain::new("sim_chain")
            .then(Box::new(DdSimulatorBackend::new().with_seed(5)))
            .then(Box::new(QasmSimulatorBackend::new().with_seed(5)));
        assert_eq!(chain.members(), vec!["dd_simulator", "qasm_simulator"]);
        // A unitary circuit is served by the first member.
        let counts = chain.run(&bell(), 200).unwrap();
        assert_eq!(counts.total(), 200);
        assert_eq!(chain.executed_on().as_deref(), Some("dd_simulator"));
        // Reset is non-unitary: the DD simulator rejects it, qasm serves it.
        let mut non_unitary = QuantumCircuit::with_size(1, 1);
        non_unitary.x(0).unwrap();
        non_unitary.reset(0).unwrap();
        non_unitary.measure(0, 0).unwrap();
        let counts = chain.run(&non_unitary, 80).unwrap();
        assert_eq!(counts.get("0"), 80);
        assert_eq!(chain.executed_on().as_deref(), Some("qasm_simulator"));
    }

    #[test]
    fn fallback_chain_reports_transient_when_all_members_fail() {
        // A T gate is non-Clifford and non-unitary-free for neither: the
        // stabilizer backend rejects it, and the injected dead backend
        // rejects everything — the chain exhausts and reports transient.
        let chain = FallbackChain::new("doomed")
            .then(Box::new(FaultInjectingBackend::new(
                Box::new(QasmSimulatorBackend::new()),
                FaultMode::AlwaysFail,
            )))
            .then(Box::new(StabilizerBackend::new()));
        let mut t_circ = QuantumCircuit::with_size(1, 1);
        t_circ.t(0).unwrap();
        t_circ.measure(0, 0).unwrap();
        let err = chain.run(&t_circ, 10).unwrap_err();
        assert!(err.is_retryable());
        assert!(err.to_string().contains("doomed"));
        assert!(chain.executed_on().is_none());
    }

    #[test]
    fn empty_chain_is_a_backend_error() {
        let chain = FallbackChain::new("empty");
        assert_eq!(chain.num_qubits(), 0);
        let err = chain.run(&bell(), 1).unwrap_err();
        assert!(!err.is_retryable());
        assert!(err.to_string().contains("no backends"));
    }
}
