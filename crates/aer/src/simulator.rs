//! The circuit simulators.
//!
//! * [`QasmSimulator`] — shot-based execution with measurement, reset,
//!   classical conditionals and (optionally) a [`NoiseModel`]; the
//!   workhorse corresponding to Qiskit Aer's `qasm_simulator` used in the
//!   paper's walkthrough (`Aer.get_backend('qasm_simulator')`).
//! * [`StatevectorSimulator`] — exact final-state computation for unitary
//!   circuits.
//! * [`UnitarySimulator`] — full-unitary extraction for verification.
//!
//! Every dense simulator evolves states on the one statevector engine in
//! [`crate::parallel`], whatever the [`ParallelConfig`]: a single worker
//! thread is one configuration of it, not a separate path.
//! `QasmSimulator` has two execution paths, both counted by
//! `qukit_aer_method_total{method,reason}`. The *terminal* path takes
//! measurement-terminal circuits whose noise is a mixture of unitaries
//! (every fake device): it draws each shot's Pauli error pattern first,
//! evolves the error-free state once and each distinct pattern once from
//! its first error, and samples every group from its final state, as
//! Qiskit Aer does. A noiseless circuit is the case with no error. The
//! *trajectory* path takes mid-circuit measurement, reset, conditionals
//! and general channels (amplitude and phase damping): one evolution per
//! shot. Both draw from per-batch seeded RNG streams, so seeded counts
//! never depend on the thread count.

use crate::counts::Counts;
use crate::error::{AerError, Result};
use crate::noise::{NoiseModel, QuantumError, ReadoutError, UnitaryErrors};
use crate::parallel::{self, ParallelConfig, Program};
use crate::statevector::Statevector;
use qukit_terra::circuit::QuantumCircuit;
use qukit_terra::complex::Complex;
use qukit_terra::instruction::Operation;
use qukit_terra::matrix::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const MAX_QUBITS: usize = 30;

/// Rejects circuits beyond the dense limit.
fn check_width(circuit: &QuantumCircuit) -> Result<()> {
    let requested = circuit.num_qubits();
    (requested <= MAX_QUBITS)
        .then_some(())
        .ok_or(AerError::TooManyQubits { requested, max: MAX_QUBITS })
}

/// Local accumulator for apply-gate counts, flushed to the global
/// [`qukit_obs`] registry once per run so the per-gate hot path stays free
/// of locks and atomics.
#[derive(Debug, Default)]
pub(crate) struct GateTally {
    gates: u64,
    amplitudes: u64,
}

impl GateTally {
    /// Records `gates` source gates folded into one pass over `amplitudes`
    /// entries (used by the fused kernels).
    #[inline]
    pub(crate) fn record_n(&mut self, gates: u64, amplitudes: u64) {
        self.gates += gates;
        self.amplitudes += amplitudes;
    }

    /// Flushes into the named gate counter plus the shared
    /// amplitudes-touched counter (no-op while recording is disabled).
    pub(crate) fn flush(self, gate_counter: &str) {
        qukit_obs::counter_add(gate_counter, self.gates);
        qukit_obs::counter_add("qukit_aer_amplitudes_touched_total", self.amplitudes);
    }
}

/// Shot-based simulator with optional noise injection.
///
/// # Examples
///
/// ```
/// use qukit_aer::simulator::QasmSimulator;
/// use qukit_terra::circuit::QuantumCircuit;
///
/// # fn main() -> Result<(), qukit_aer::error::AerError> {
/// let mut bell = QuantumCircuit::with_size(2, 2);
/// bell.h(0).unwrap();
/// bell.cx(0, 1).unwrap();
/// bell.measure(0, 0).unwrap();
/// bell.measure(1, 1).unwrap();
///
/// let counts = QasmSimulator::new().with_seed(7).run(&bell, 1000)?;
/// assert_eq!(counts.total(), 1000);
/// assert_eq!(counts.get("01") + counts.get("10"), 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct QasmSimulator {
    noise: Option<NoiseModel>,
    seed: Option<u64>,
    parallel: ParallelConfig,
}

impl QasmSimulator {
    /// Creates an ideal (noiseless) simulator. The parallel configuration
    /// defaults to [`ParallelConfig::from_env`], so `QUKIT_THREADS` /
    /// `QUKIT_CHUNK_QUBITS` / `QUKIT_SIMD` steer every default-constructed
    /// instance.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a noise model (builder style).
    pub fn with_noise(mut self, noise: NoiseModel) -> Self {
        self.noise = Some(noise);
        self
    }

    /// Fixes the RNG seed for reproducible sampling (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Sets the statevector engine configuration (builder style).
    pub fn with_parallel(mut self, parallel: ParallelConfig) -> Self {
        self.parallel = parallel;
        self
    }

    /// The attached noise model, if any.
    pub fn noise(&self) -> Option<&NoiseModel> {
        self.noise.as_ref()
    }

    /// The active parallel configuration.
    pub fn parallel(&self) -> &ParallelConfig {
        &self.parallel
    }

    /// Executes `shots` repetitions of `circuit` and histograms the
    /// classical outcomes.
    ///
    /// When the circuit is measurement-terminal (no reset, no conditional,
    /// no gate after a measurement on its qubit) and its noise is a mixture
    /// of unitaries, the state is evolved once per distinct error pattern
    /// and sampled; otherwise each shot is an independent trajectory. For
    /// a fixed seed the counts are identical at every thread count, chunk
    /// size and SIMD setting.
    ///
    /// # Errors
    ///
    /// Returns an error when the circuit is too wide or uses more than 64
    /// classical bits.
    pub fn run(&self, circuit: &QuantumCircuit, shots: usize) -> Result<Counts> {
        self.run_into(circuit, shots, &mut Vec::new())
    }

    /// Executes a batch of circuits — typically the bindings of one
    /// parameter sweep — with `shots` repetitions each, reusing the
    /// amplitude buffer across bindings so a 64-point sweep allocates one
    /// state instead of 64.
    ///
    /// For a seeded simulator the returned histograms are bit-identical
    /// to calling [`QasmSimulator::run`] once per circuit: each binding
    /// runs the exact same evolution and sampling code with the same
    /// seed derivation.
    ///
    /// # Errors
    ///
    /// Same conditions as [`QasmSimulator::run`], for any circuit.
    pub fn run_batch(&self, circuits: &[QuantumCircuit], shots: usize) -> Result<Vec<Counts>> {
        let _span =
            qukit_obs::span!("aer.qasm_run_batch", circuits = circuits.len(), shots = shots,);
        qukit_obs::counter_inc("qukit_aer_batch_runs_total");
        let mut amps = Vec::new();
        circuits.iter().map(|circuit| self.run_into(circuit, shots, &mut amps)).collect()
    }

    /// [`QasmSimulator::run`] with a caller-provided amplitude buffer
    /// (reused across the bindings of a batch).
    fn run_into(
        &self,
        circuit: &QuantumCircuit,
        shots: usize,
        amps: &mut Vec<Complex>,
    ) -> Result<Counts> {
        check_width(circuit)?;
        if circuit.num_clbits() > 64 {
            return Err(AerError::TooManyClbits { requested: circuit.num_clbits() });
        }
        let seed = self.seed.unwrap_or_else(|| rand::thread_rng().gen());
        // Each gate's channel, resolved once per run.
        let channels: Vec<Option<&QuantumError>> = circuit
            .instructions()
            .iter()
            .map(|inst| self.noise.as_ref().and_then(|noise| noise.channel_for(inst)))
            .collect();
        let (method, reason) = match trajectory_reason(circuit) {
            Some(reason) => ("trajectory", reason),
            None if channels.iter().flatten().any(|e| e.unitary_errors.is_none()) => {
                ("trajectory", "general_channel")
            }
            None if channels.iter().all(Option::is_none) => ("terminal", "noiseless"),
            None => ("terminal", "mixed_unitary"),
        };
        let mut span = qukit_obs::span!(
            "aer.qasm_run",
            qubits = circuit.num_qubits(),
            shots = shots,
            method = method,
            reason = reason,
        );
        qukit_obs::counter_inc("qukit_aer_qasm_runs_total");
        qukit_obs::counter_add("qukit_aer_shots_total", shots as u64);
        qukit_obs::counter_inc_with(
            "qukit_aer_method_total",
            &[("method", method), ("reason", reason)],
        );
        let mut tally = GateTally::default();
        let (counts, patterns) = if method == "terminal" {
            self.run_terminal(circuit, &channels, shots, seed, amps, &mut tally)?
        } else {
            (self.run_trajectories(circuit, &channels, shots, seed, &mut tally), shots)
        };
        span.record("patterns", patterns);
        tally.flush("qukit_aer_statevector_gates_total");
        Ok(counts)
    }

    /// The terminal path, for measurement-terminal circuits whose channels
    /// are all mixtures of unitaries; a noiseless circuit is the case with
    /// no error site. Every shot's non-identity branches are drawn first
    /// and shots are grouped by error pattern. The error-free state is
    /// evolved once on the engine; at each pattern's first error a copy
    /// branches off and finishes that pattern. Each group is sampled from
    /// its final state, the error-free group last and in place. Returns
    /// the counts and the number of distinct patterns evolved.
    fn run_terminal(
        &self,
        circuit: &QuantumCircuit,
        channels: &[Option<&QuantumError>],
        shots: usize,
        seed: u64,
        amps: &mut Vec<Complex>,
        tally: &mut GateTally,
    ) -> Result<(Counts, usize)> {
        // Terminal measurements commute with every later gate (those act
        // on other qubits), so the engine sees the circuit without them.
        let mut measures = Vec::new();
        let mut gates = Vec::new();
        // Error sites: the cut after each noisy gate, and its branches.
        let mut sites = Vec::new();
        for (inst, channel) in circuit.instructions().iter().zip(channels) {
            if let Operation::Measure = inst.op {
                measures.push((inst.qubits[0], inst.clbits[0]));
                continue;
            }
            gates.push(inst);
            if let Some(errors) = channel.and_then(|e| e.unitary_errors.as_ref()) {
                sites.push((gates.len(), errors));
            }
        }
        let groups = draw_patterns(&sites, shots, seed, self.parallel.threads);
        let mut cuts: Vec<usize> = groups
            .iter()
            .flat_map(|(pattern, _)| pattern.iter().map(|&(s, _)| sites[s].0))
            .collect();
        cuts.sort_unstable();
        cuts.dedup();
        amps.clear();
        amps.resize(1usize << circuit.num_qubits(), Complex::ZERO);
        amps[0] = Complex::ONE;
        let program = Program::cut(&gates, &cuts, &[(0, false)], parallel::fuses(amps.len()));
        let end = program.len();
        let mut samples = Vec::new();
        let mut branch = Vec::new();
        let (mut at, mut error_free) = (0, 0);
        let group_seed = stream_seed(seed, GROUP_STREAM);
        for (g, (pattern, count)) in groups.iter().enumerate() {
            let Some(&(first, _)) = pattern.first() else {
                error_free = *count;
                continue;
            };
            program.run(amps, at, sites[first].0, &self.parallel, tally);
            at = sites[first].0;
            branch.clear();
            branch.extend_from_slice(amps);
            let mut pos = at;
            for &(site, b) in pattern {
                let (cut, errors) = sites[site];
                program.run(&mut branch, pos, cut, &self.parallel, tally);
                pos = cut;
                let (unitary, qubits) = (&errors.branches[b].1, &gates[cut - 1].qubits);
                parallel::apply_matrix(&mut branch, unitary, qubits, self.parallel.simd);
            }
            program.run(&mut branch, pos, end, &self.parallel, tally);
            let stream = parallel::batch_seed(group_seed, g as u64);
            samples.extend(parallel::sample_terminal(&mut branch, *count, stream, 1));
        }
        program.run(amps, at, end, &self.parallel, tally);
        let _sample_span = qukit_obs::span!("aer.sample", shots = shots, mode = "statevector")
            .with_metric("qukit_aer_sample_seconds");
        let mut all = parallel::sample_terminal(amps, error_free, seed, self.parallel.threads);
        all.append(&mut samples);
        let readout = self.noise.as_ref().and_then(NoiseModel::readout_error);
        let counts = histogram(&mut all, &measures, circuit.num_clbits(), readout, seed);
        Ok((counts, groups.len()))
    }

    /// The trajectory path: one state evolution per shot, on kernels
    /// lowered once per run. Shots are split into fixed-size batches with
    /// per-batch seeded RNG streams, so seeded counts never depend on the
    /// thread count.
    fn run_trajectories(
        &self,
        circuit: &QuantumCircuit,
        channels: &[Option<&QuantumError>],
        shots: usize,
        seed: u64,
        tally: &mut GateTally,
    ) -> Counts {
        // Unfused, with a cut at every position: any stretch can run.
        let every: Vec<usize> = (1..circuit.instructions().len()).collect();
        let program = Program::cut(circuit.instructions(), &every, &[(0, false)], false);
        let size = parallel::TRAJECTORY_BATCH;
        let run_batch = |batch: usize| {
            let mut rng = StdRng::seed_from_u64(parallel::batch_seed(seed, batch as u64));
            let mut tally = GateTally::default();
            let mut shot =
                || self.run_trajectory(circuit, &program, channels, &mut rng, &mut tally);
            let outcomes: Vec<u64> = (0..size.min(shots - batch * size)).map(|_| shot()).collect();
            (outcomes, tally)
        };
        let mut counts = Counts::new(circuit.num_clbits());
        for (outcomes, batch) in
            parallel::for_batches(shots.div_ceil(size), self.parallel.threads, run_batch)
        {
            outcomes.into_iter().for_each(|outcome| counts.record(outcome));
            tally.record_n(batch.gates, batch.amplitudes);
        }
        counts
    }

    /// One shot with mid-circuit measurement, reset, conditionals and
    /// stochastic noise; returns its classical register. Gates apply in
    /// stretches that end only at a measurement, a reset, a skipped
    /// conditional or a drawn error, so an identity branch never touches
    /// the state. Shots run in parallel, so each runs on one worker.
    fn run_trajectory(
        &self,
        circuit: &QuantumCircuit,
        program: &Program,
        channels: &[Option<&QuantumError>],
        rng: &mut StdRng,
        tally: &mut GateTally,
    ) -> u64 {
        let config = ParallelConfig { threads: 1, ..self.parallel };
        let readout = self.noise.as_ref().and_then(NoiseModel::readout_error);
        let mut state = Statevector::new(circuit.num_qubits());
        let mut creg = 0u64;
        // Instructions `pending..` are lowered but not yet applied.
        let mut pending = 0;
        for (i, (inst, channel)) in circuit.instructions().iter().zip(channels).enumerate() {
            let skipped = inst.condition.as_ref().is_some_and(|cond| {
                let read = |value, (bit, &c): (usize, &usize)| value | ((creg >> c) & 1) << bit;
                cond.clbits.iter().enumerate().fold(0u64, read) != cond.value
            });
            // `Some(unitary)` for a drawn error branch, `Some(None)` for a
            // state-dependent step: a general channel, measure or reset.
            let step = match (&inst.op, channel) {
                _ if skipped => None,
                (Operation::Gate(_), Some(error)) => match &error.unitary_errors {
                    Some(errors) => errors.draw(rng).map(|b| Some(&errors.branches[b].1)),
                    None => Some(None),
                },
                (Operation::Measure | Operation::Reset, _) => Some(None),
                _ => None,
            };
            if skipped || step.is_some() {
                // Apply the pending stretch, with gate `i` unless skipped.
                let to = if skipped { i } else { i + 1 };
                program.run(state.amplitudes_mut(), pending, to, &config, tally);
                pending = i + 1;
            }
            match (&inst.op, step) {
                (_, None) => {}
                (Operation::Gate(_), Some(Some(unitary))) => {
                    state.apply_matrix(unitary, &inst.qubits);
                }
                (Operation::Gate(_), Some(None)) => {
                    let error = channel.expect("a drawn step has a channel");
                    error.apply_stochastic(&mut state, &inst.qubits, rng);
                }
                (Operation::Measure, _) => {
                    let measured = state.measure(inst.qubits[0], rng);
                    let bit = readout.map_or(measured, |r| r.apply(measured, rng));
                    creg = (creg & !(1 << inst.clbits[0])) | u64::from(bit) << inst.clbits[0];
                }
                (_, Some(_)) => state.reset(inst.qubits[0], rng),
            }
        }
        program.run(state.amplitudes_mut(), pending, program.len(), &config, tally);
        creg
    }
}

/// Tags of the terminal path's own RNG streams. The error-free group
/// samples from the run seed itself, exactly as a noiseless run does.
const PATTERN_STREAM: u64 = 0;
const GROUP_STREAM: u64 = 1;
const READOUT_STREAM: u64 = 2;

/// The seed of a tagged stream, independent of the run seed's batches.
fn stream_seed(seed: u64, stream: u64) -> u64 {
    parallel::batch_seed(seed, u64::MAX - stream)
}

/// Draws every shot's non-identity branches, as `(site, branch)` pairs in
/// site order, from per-batch seed streams, and groups equal patterns:
/// `(pattern, shots)` in ascending pattern order, so the error-free
/// pattern comes first and the others by their first error site.
fn draw_patterns(
    sites: &[(usize, &UnitaryErrors)],
    shots: usize,
    seed: u64,
    threads: usize,
) -> Vec<(Vec<(usize, usize)>, usize)> {
    if sites.is_empty() {
        return vec![(Vec::new(), shots)];
    }
    let stream = stream_seed(seed, PATTERN_STREAM);
    let draw_batch = |batch: usize| {
        let mut rng = StdRng::seed_from_u64(parallel::batch_seed(stream, batch as u64));
        let size = parallel::SHOT_BATCH.min(shots - batch * parallel::SHOT_BATCH);
        let mut pattern = || -> Vec<(usize, usize)> {
            let drawn = sites.iter().enumerate();
            drawn
                .filter_map(|(site, (_, errors))| errors.draw(&mut rng).map(|b| (site, b)))
                .collect()
        };
        (0..size).map(|_| pattern()).collect::<Vec<_>>()
    };
    let batches = shots.div_ceil(parallel::SHOT_BATCH);
    let mut patterns: Vec<Vec<_>> = parallel::for_batches(batches, threads, draw_batch).concat();
    patterns.sort_unstable();
    patterns.chunk_by(|a, b| a == b).map(|run| (run[0].clone(), run.len())).collect()
}

/// Histograms sampled basis states through the terminal measurements.
/// Readout error flips each recorded bit per shot.
fn histogram(
    samples: &mut [usize],
    measures: &[(usize, usize)],
    clbits: usize,
    readout: Option<ReadoutError>,
    seed: u64,
) -> Counts {
    samples.sort_unstable();
    let mut rng = StdRng::seed_from_u64(stream_seed(seed, READOUT_STREAM));
    let mut counts = Counts::new(clbits);
    for run in samples.chunk_by(|a, b| a == b) {
        // Without readout error a run of equal samples is one update.
        let (updates, n) = if readout.is_some() { (run.len(), 1) } else { (1, run.len()) };
        for _ in 0..updates {
            let outcome = measures.iter().fold(0u64, |acc, &(q, c)| {
                let bit = (run[0] >> q) & 1 == 1;
                acc | u64::from(readout.map_or(bit, |r| r.apply(bit, &mut rng))) << c
            });
            counts.record_n(outcome, n);
        }
    }
    counts
}

/// Why a circuit needs per-shot trajectories, or `None` when measurement
/// is effectively terminal: no conditional or reset instructions, each
/// measured qubit is never touched again after its measure, and no
/// classical bit is written twice. Gates on *other* qubits may follow a
/// measure — a measurement commutes with operations on disjoint qubits, so
/// sampling the terminal distribution once is exact.
fn trajectory_reason(circuit: &QuantumCircuit) -> Option<&'static str> {
    // Qubit and clbit counts are bounded well below 64 at every call
    // site (MAX_QUBITS and the 64-clbit admission check), so bitmasks
    // suffice.
    let mut measured_qubits = 0u64;
    let mut written_clbits = 0u64;
    for inst in circuit.instructions() {
        if inst.condition.is_some() {
            return Some("conditional");
        }
        match inst.op {
            Operation::Measure => {
                let qubit = 1u64 << inst.qubits[0];
                let clbit = 1u64 << inst.clbits[0];
                if measured_qubits & qubit != 0 || written_clbits & clbit != 0 {
                    return Some("mid_circuit_measure");
                }
                measured_qubits |= qubit;
                written_clbits |= clbit;
            }
            Operation::Reset => return Some("reset"),
            Operation::Gate(_) => {
                if inst.qubits.iter().any(|&q| measured_qubits & (1u64 << q) != 0) {
                    return Some("mid_circuit_measure");
                }
            }
            Operation::Barrier => {}
        }
    }
    None
}

/// Exact statevector simulator for unitary circuits, on the statevector
/// engine of [`crate::parallel`].
///
/// # Examples
///
/// ```
/// use qukit_aer::parallel::ParallelConfig;
/// use qukit_aer::simulator::StatevectorSimulator;
/// use qukit_terra::circuit::QuantumCircuit;
///
/// # fn main() -> Result<(), qukit_aer::error::AerError> {
/// let mut ghz = QuantumCircuit::new(3);
/// ghz.h(0).unwrap();
/// ghz.cx(0, 1).unwrap();
/// ghz.cx(1, 2).unwrap();
/// let state = StatevectorSimulator::new().run(&ghz)?;
/// assert!((state.amplitude(0).norm_sqr() - 0.5).abs() < 1e-12);
/// let threaded = StatevectorSimulator::new().with_parallel(ParallelConfig::with_threads(2));
/// assert_eq!(threaded.run(&ghz)?, state);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct StatevectorSimulator {
    parallel: ParallelConfig,
}

impl StatevectorSimulator {
    /// Creates the simulator; the engine configuration defaults to
    /// [`ParallelConfig::from_env`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the statevector engine configuration (builder style).
    pub fn with_parallel(mut self, parallel: ParallelConfig) -> Self {
        self.parallel = parallel;
        self
    }

    /// Computes the exact final state of a unitary circuit.
    ///
    /// # Errors
    ///
    /// Returns [`AerError::UnsupportedInstruction`] for measurement, reset
    /// or conditioned gates, and [`AerError::TooManyQubits`] for circuits
    /// beyond the dense limit.
    pub fn run(&self, circuit: &QuantumCircuit) -> Result<Statevector> {
        check_width(circuit)?;
        let _span = qukit_obs::span!(
            "aer.statevector_run",
            qubits = circuit.num_qubits(),
            threads = self.parallel.threads,
            simd = if self.parallel.simd { "on" } else { "off" },
        );
        qukit_obs::counter_inc("qukit_aer_statevector_runs_total");
        let mut amps = vec![Complex::ZERO; 1usize << circuit.num_qubits()];
        amps[0] = Complex::ONE;
        let mut tally = GateTally::default();
        parallel::evolve(&mut amps, circuit.instructions(), &self.parallel, &mut tally)?;
        tally.flush("qukit_aer_statevector_gates_total");
        let mut state = Statevector::from_amplitudes(amps);
        state.apply_global_phase(circuit.global_phase());
        Ok(state)
    }
}

/// Full-unitary simulator (exponentially expensive; for verification).
#[derive(Debug, Clone, Copy, Default)]
pub struct UnitarySimulator;

impl UnitarySimulator {
    /// Creates the simulator.
    pub fn new() -> Self {
        Self
    }

    /// Computes the circuit's unitary matrix.
    ///
    /// # Errors
    ///
    /// Same conditions as [`StatevectorSimulator::run`], with a tighter
    /// width limit (the matrix is `4^n` entries).
    pub fn run(&self, circuit: &QuantumCircuit) -> Result<Matrix> {
        if circuit.num_qubits() > 13 {
            return Err(AerError::TooManyQubits { requested: circuit.num_qubits(), max: 13 });
        }
        parallel::require_unitary(circuit.instructions(), "unitary simulator")?;
        qukit_terra::reference::unitary(circuit).map_err(AerError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::{NoiseModel, QuantumError, ReadoutError};
    use qukit_terra::gate::Gate;

    fn bell_measured() -> QuantumCircuit {
        let mut circ = QuantumCircuit::with_size(2, 2);
        circ.h(0).unwrap();
        circ.cx(0, 1).unwrap();
        circ.measure(0, 0).unwrap();
        circ.measure(1, 1).unwrap();
        circ
    }

    #[test]
    fn bell_counts_are_correlated_and_balanced() {
        let counts = QasmSimulator::new().with_seed(1).run(&bell_measured(), 4000).unwrap();
        assert_eq!(counts.total(), 4000);
        assert_eq!(counts.get("01"), 0);
        assert_eq!(counts.get("10"), 0);
        let p00 = counts.probability(0b00);
        assert!((p00 - 0.5).abs() < 0.05, "p00 = {p00}");
    }

    #[test]
    fn seeded_runs_are_reproducible() {
        let a = QasmSimulator::new().with_seed(9).run(&bell_measured(), 100).unwrap();
        let b = QasmSimulator::new().with_seed(9).run(&bell_measured(), 100).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn run_batch_is_bit_identical_to_per_circuit_runs() {
        let circuits: Vec<QuantumCircuit> = (0..8)
            .map(|i| {
                let mut circ = QuantumCircuit::with_size(3, 3);
                circ.ry(0.1 + 0.2 * i as f64, 0).unwrap();
                circ.cx(0, 1).unwrap();
                circ.ry(0.3 + 0.1 * i as f64, 2).unwrap();
                circ.cx(1, 2).unwrap();
                circ.measure_all();
                circ
            })
            .collect();
        let sim = QasmSimulator::new().with_seed(13).with_parallel(ParallelConfig::with_threads(2));
        let batch = sim.run_batch(&circuits, 512).unwrap();
        assert_eq!(batch.len(), circuits.len());
        for (circ, counts) in circuits.iter().zip(&batch) {
            assert_eq!(&sim.run(circ, 512).unwrap(), counts);
        }
        // The default configuration shares the same engine and buffer reuse.
        let default = QasmSimulator::new().with_seed(13);
        let batch = default.run_batch(&circuits, 64).unwrap();
        for (circ, counts) in circuits.iter().zip(&batch) {
            assert_eq!(&default.run(circ, 64).unwrap(), counts);
        }
    }

    #[test]
    fn unmeasured_qubits_report_zero() {
        let mut circ = QuantumCircuit::with_size(2, 1);
        circ.x(0).unwrap();
        circ.x(1).unwrap();
        circ.measure(1, 0).unwrap();
        let counts = QasmSimulator::new().with_seed(2).run(&circ, 50).unwrap();
        assert_eq!(counts.get_value(1), 50);
    }

    #[test]
    fn mid_circuit_measurement_forces_trajectories() {
        // Measure then apply a conditional X: deterministic teleport-like
        // correction.
        let mut circ = QuantumCircuit::with_size(2, 2);
        circ.x(0).unwrap();
        circ.measure(0, 0).unwrap();
        circ.append_conditional(Gate::X, &[1], "c", 1).unwrap();
        circ.measure(1, 1).unwrap();
        let counts = QasmSimulator::new().with_seed(3).run(&circ, 200).unwrap();
        assert_eq!(counts.get_value(0b11), 200);
    }

    #[test]
    fn conditional_not_taken_when_register_differs() {
        let mut circ = QuantumCircuit::with_size(2, 2);
        circ.measure(0, 0).unwrap(); // always 0
        circ.append_conditional(Gate::X, &[1], "c", 1).unwrap();
        circ.measure(1, 1).unwrap();
        let counts = QasmSimulator::new().with_seed(4).run(&circ, 100).unwrap();
        assert_eq!(counts.get_value(0b00), 100);
    }

    #[test]
    fn reset_clears_qubit_state() {
        let mut circ = QuantumCircuit::with_size(1, 1);
        circ.h(0).unwrap();
        circ.reset(0).unwrap();
        circ.measure(0, 0).unwrap();
        let counts = QasmSimulator::new().with_seed(5).run(&circ, 300).unwrap();
        assert_eq!(counts.get_value(0), 300);
    }

    #[test]
    fn depolarizing_noise_degrades_ghz() {
        let mut ghz = QuantumCircuit::with_size(3, 3);
        ghz.h(0).unwrap();
        ghz.cx(0, 1).unwrap();
        ghz.cx(1, 2).unwrap();
        ghz.measure(0, 0).unwrap();
        ghz.measure(1, 1).unwrap();
        ghz.measure(2, 2).unwrap();

        let ideal = QasmSimulator::new().with_seed(6).run(&ghz, 2000).unwrap();
        let noisy = QasmSimulator::new()
            .with_seed(6)
            .with_noise(NoiseModel::depolarizing(0.01, 0.05, 0.0))
            .run(&ghz, 2000)
            .unwrap();
        let ideal_success = ideal.probability(0b000) + ideal.probability(0b111);
        let noisy_success = noisy.probability(0b000) + noisy.probability(0b111);
        assert!(ideal_success > 0.99);
        assert!(noisy_success < ideal_success - 0.02, "noise must visibly degrade results");
        assert!(noisy_success > 0.5, "but not destroy them at these rates");
    }

    #[test]
    fn readout_error_flips_deterministic_outcome() {
        let mut circ = QuantumCircuit::with_size(1, 1);
        circ.measure(0, 0).unwrap();
        let mut noise = NoiseModel::new();
        noise.set_readout_error(ReadoutError::symmetric(0.2));
        let counts = QasmSimulator::new().with_seed(7).with_noise(noise).run(&circ, 3000).unwrap();
        let flip_rate = counts.probability(1);
        assert!((flip_rate - 0.2).abs() < 0.03, "flip rate {flip_rate}");
    }

    #[test]
    fn local_noise_only_affects_its_qubits() {
        let mut circ = QuantumCircuit::with_size(2, 2);
        circ.id(0).unwrap();
        circ.id(1).unwrap();
        circ.measure(0, 0).unwrap();
        circ.measure(1, 1).unwrap();
        let mut noise = NoiseModel::new();
        // 100% bit flip attached to id on qubit 1 only.
        noise.add_local_error("id", vec![1], QuantumError::bit_flip(1.0));
        let counts = QasmSimulator::new().with_seed(8).with_noise(noise).run(&circ, 100).unwrap();
        assert_eq!(counts.get_value(0b10), 100);
    }

    #[test]
    fn statevector_simulator_matches_reference() {
        let circ = qukit_terra::circuit::fig1_circuit();
        let state = StatevectorSimulator::new().run(&circ).unwrap();
        let reference = qukit_terra::reference::statevector(&circ).unwrap();
        for (a, b) in state.amplitudes().iter().zip(&reference) {
            assert!(a.approx_eq(*b));
        }
    }

    #[test]
    fn statevector_simulator_rejects_measurement() {
        let err = StatevectorSimulator::new().run(&bell_measured()).unwrap_err();
        assert!(matches!(err, AerError::UnsupportedInstruction { .. }));
        assert!(err.to_string().contains("measure"));
    }

    #[test]
    fn unitary_simulator_produces_unitary() {
        let mut circ = QuantumCircuit::new(2);
        circ.h(0).unwrap();
        circ.cx(0, 1).unwrap();
        let u = UnitarySimulator::new().run(&circ).unwrap();
        assert!(u.is_unitary());
        assert_eq!(u.rows(), 4);
    }

    #[test]
    fn terminal_detection() {
        assert_eq!(trajectory_reason(&bell_measured()), None);
        let mut mid = QuantumCircuit::with_size(1, 1);
        mid.measure(0, 0).unwrap();
        mid.h(0).unwrap();
        assert_eq!(trajectory_reason(&mid), Some("mid_circuit_measure"));
        let mut with_reset = QuantumCircuit::with_size(1, 1);
        with_reset.reset(0).unwrap();
        assert_eq!(trajectory_reason(&with_reset), Some("reset"));
    }

    #[test]
    fn terminal_detection_commutes_measures_past_disjoint_gates() {
        // Scheduler-style interleaving: q0 is measured while tail gates
        // still run on q1/q2. No measured qubit is touched again, so the
        // sampled fast path applies.
        let mut interleaved = QuantumCircuit::with_size(3, 3);
        interleaved.h(0).unwrap();
        interleaved.measure(0, 0).unwrap();
        interleaved.h(1).unwrap();
        interleaved.measure(1, 1).unwrap();
        interleaved.h(2).unwrap();
        interleaved.measure(2, 2).unwrap();
        assert_eq!(trajectory_reason(&interleaved), None);

        // A two-qubit gate touching an already-measured qubit disqualifies.
        let mut reuse = QuantumCircuit::with_size(2, 2);
        reuse.measure(0, 0).unwrap();
        reuse.cx(0, 1).unwrap();
        assert_eq!(trajectory_reason(&reuse), Some("mid_circuit_measure"));

        // Writing the same clbit twice disqualifies (order matters).
        let mut overwrite = QuantumCircuit::with_size(2, 1);
        overwrite.measure(0, 0).unwrap();
        overwrite.measure(1, 0).unwrap();
        assert_eq!(trajectory_reason(&overwrite), Some("mid_circuit_measure"));
    }

    #[test]
    fn width_limits_are_enforced() {
        let circ = QuantumCircuit::new(31);
        assert!(matches!(QasmSimulator::new().run(&circ, 1), Err(AerError::TooManyQubits { .. })));
        let circ14 = QuantumCircuit::new(14);
        assert!(matches!(
            UnitarySimulator::new().run(&circ14),
            Err(AerError::TooManyQubits { .. })
        ));
    }
}
