//! The backend provider.
//!
//! Mirrors the paper's access pattern
//! (`IBMQ.load_accounts(); IBMQ.get_backend('ibmqx4')`): a registry of
//! available backends looked up by name.

use crate::backend::{
    Backend, DdSimulatorBackend, FakeDevice, QasmSimulatorBackend, StabilizerBackend,
};
use crate::error::{QukitError, Result};

/// A registry of execution backends.
///
/// # Examples
///
/// ```
/// use qukit::provider::Provider;
///
/// let provider = Provider::with_defaults();
/// let backend = provider.get_backend("ibmqx4").unwrap();
/// assert_eq!(backend.num_qubits(), 5);
/// ```
#[derive(Default)]
pub struct Provider {
    backends: Vec<Box<dyn Backend>>,
}

impl Provider {
    /// An empty provider.
    pub fn new() -> Self {
        Self::default()
    }

    /// The standard provider: both simulators plus the three fake QX
    /// devices.
    pub fn with_defaults() -> Self {
        let mut provider = Self::new();
        provider.register(Box::new(QasmSimulatorBackend::new()));
        provider.register(Box::new(DdSimulatorBackend::new()));
        provider.register(Box::new(StabilizerBackend::new()));
        provider.register(Box::new(FakeDevice::ibmqx2()));
        provider.register(Box::new(FakeDevice::ibmqx4()));
        provider.register(Box::new(FakeDevice::ibmqx5()));
        provider
    }

    /// Registers a backend. Re-registering a name replaces the previous
    /// entry (**last registration wins**), so tests and tools can swap a
    /// default backend for an instrumented one — e.g. a
    /// [`FaultInjectingBackend`](crate::fault::FaultInjectingBackend)
    /// wrapping it — without lookup ambiguity.
    pub fn register(&mut self, backend: Box<dyn Backend>) {
        self.backends.retain(|b| b.name() != backend.name());
        self.backends.push(backend);
    }

    /// Applies a parallel-execution configuration to every registered
    /// backend that supports one (see
    /// [`Backend::set_parallel`](crate::backend::Backend::set_parallel)).
    /// Backends without a statevector engine ignore the call.
    pub fn set_parallel(&mut self, config: qukit_aer::parallel::ParallelConfig) {
        for backend in &mut self.backends {
            backend.set_parallel(config);
        }
    }

    /// Lists the registered backend names.
    pub fn backend_names(&self) -> Vec<&str> {
        self.backends.iter().map(|b| b.name()).collect()
    }

    /// Looks up a backend by name. Names are unique by construction
    /// ([`register`](Provider::register) replaces duplicates), so the
    /// lookup is unambiguous and always returns the most recently
    /// registered backend of that name.
    ///
    /// # Errors
    ///
    /// Returns [`QukitError::Backend`] when no backend has that name.
    pub fn get_backend(&self, name: &str) -> Result<&dyn Backend> {
        self.backends.iter().map(|b| b.as_ref()).find(|b| b.name() == name).ok_or_else(|| {
            QukitError::Backend {
                msg: format!(
                    "unknown backend '{name}' (available: {})",
                    self.backends.iter().map(|b| b.name()).collect::<Vec<_>>().join(", ")
                ),
            }
        })
    }
}

impl std::fmt::Debug for Provider {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Provider").field("backends", &self.backend_names()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_provider_lists_expected_backends() {
        let provider = Provider::with_defaults();
        let names = provider.backend_names();
        for expected in
            ["qasm_simulator", "dd_simulator", "stabilizer_simulator", "ibmqx2", "ibmqx4", "ibmqx5"]
        {
            assert!(names.contains(&expected), "missing {expected}");
        }
    }

    #[test]
    fn lookup_by_name() {
        let provider = Provider::with_defaults();
        assert_eq!(provider.get_backend("ibmqx5").unwrap().num_qubits(), 16);
        let err = match provider.get_backend("ibmqx99") {
            Err(e) => e,
            Ok(_) => panic!("lookup should fail"),
        };
        assert!(err.to_string().contains("unknown backend"));
        assert!(err.to_string().contains("available"));
    }

    #[test]
    fn custom_registration() {
        let mut provider = Provider::new();
        assert!(provider.backend_names().is_empty());
        provider.register(Box::new(QasmSimulatorBackend::new()));
        assert_eq!(provider.backend_names(), vec!["qasm_simulator"]);
    }

    #[test]
    fn re_registration_replaces_the_previous_backend() {
        let mut provider = Provider::with_defaults();
        let before = provider.backend_names().len();
        // Replace the default qasm simulator with a seeded one.
        provider.register(Box::new(QasmSimulatorBackend::new().with_seed(7)));
        assert_eq!(provider.backend_names().len(), before, "no duplicate entry");
        assert_eq!(provider.backend_names().iter().filter(|n| **n == "qasm_simulator").count(), 1);
        // Last registration wins: a wrapped backend under the same name
        // is what lookup now returns.
        let flaky = crate::fault::FaultInjectingBackend::new(
            Box::new(QasmSimulatorBackend::new().with_seed(7)),
            crate::fault::FaultMode::AlwaysFail,
        );
        provider.register(Box::new(flaky));
        let backend = provider.get_backend("qasm_simulator").unwrap();
        let mut circ = qukit_terra::circuit::QuantumCircuit::new(1);
        circ.h(0).unwrap();
        circ.measure_all();
        assert!(backend.run(&circ, 10).is_err(), "lookup must return the fault wrapper");
    }

    #[test]
    fn debug_is_nonempty() {
        let text = format!("{:?}", Provider::with_defaults());
        assert!(text.contains("ibmqx4"));
    }
}
