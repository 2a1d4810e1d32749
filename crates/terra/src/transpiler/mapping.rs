//! Coupling-constrained mapping (qubit routing).
//!
//! This module reproduces the paper's Section V-B: a given circuit must be
//! made to satisfy the CNOT-constraints of a QX architecture by (a) placing
//! logical qubits on physical ones, (b) inserting SWAPs when interacting
//! qubits drift apart, and (c) fixing CNOT directions with Hadamard
//! conjugation. Minimizing the inserted gates is NP-hard [Botea et al.,
//! SoCS'18], so three strategies are provided:
//!
//! * [`MapperKind::Basic`] — the naive strategy of early Qiskit `compile`:
//!   route every CNOT independently along a shortest path (Fig. 4a);
//! * [`MapperKind::AStar`] — per-layer A* search for a minimal SWAP
//!   sequence, after Zulehner-Paler-Wille (TCAD'18) — the "improved
//!   mapping" of Fig. 4b;
//! * [`MapperKind::Sabre`] — the default: SABRE's decay-weighted swap
//!   scoring with a bidirectional layout search (Li-Ding-Xie, ASPLOS'19),
//!   which ties or beats A* on every routing golden.

use crate::circuit::QuantumCircuit;
use crate::coupling::CouplingMap;
use crate::error::{Result, TerraError};
use crate::gate::Gate;
use crate::instruction::{Instruction, Operation};
use crate::layout::Layout;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

/// The mapping strategy to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MapperKind {
    /// Naive shortest-path routing of each CNOT independently.
    Basic,
    /// Per-layer A* search for minimal swap sequences.
    AStar,
    /// SABRE (Li-Ding-Xie, ASPLOS'19): decay-weighted front + extended-set
    /// swap scoring, with bidirectional forward/reverse traversals that
    /// refine the initial layout before the final routing pass. The
    /// default router of the library and the CLI.
    #[default]
    Sabre,
}

/// Result of mapping a circuit onto a device.
#[derive(Debug, Clone)]
pub struct MappingResult {
    /// The mapped circuit over *physical* qubits (width = device size).
    /// Contains [`Gate::Swap`] instructions that still need decomposition
    /// and direction fixing (see [`fix_directions`]).
    pub circuit: QuantumCircuit,
    /// Initial placement: `initial_layout[l]` is the physical home of
    /// logical qubit `l` at circuit start.
    pub initial_layout: Vec<usize>,
    /// Final placement after all inserted SWAPs.
    pub final_layout: Vec<usize>,
    /// Number of SWAP gates inserted.
    pub num_swaps: usize,
}

/// Initial-placement strategies.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum InitialLayout {
    /// Logical `i` on physical `i`.
    #[default]
    Trivial,
    /// Interaction-degree heuristic: the most-connected logical qubit goes
    /// to the highest-degree physical qubit, its partners to neighbours.
    Dense,
    /// Caller-provided logical→physical table.
    Custom(Vec<usize>),
    /// Calibration-driven placement: prefers physical locations whose
    /// connecting edges (and readout) have the highest fidelity, weighted
    /// by how often each logical pair interacts — the noise-adaptive
    /// layout used with real-device calibration data.
    NoiseAware {
        /// Per-undirected-edge fidelity `((a, b), f)`; missing edges
        /// default to 0.99.
        edge_fidelity: Vec<((usize, usize), f64)>,
        /// Per-qubit readout fidelity; missing entries default to 1.0.
        qubit_fidelity: Vec<f64>,
    },
}

/// Picks an initial layout for `circuit` on `map`.
///
/// # Errors
///
/// Returns an error if the circuit needs more qubits than the device has or
/// a custom layout is invalid.
pub fn choose_initial_layout(
    circuit: &QuantumCircuit,
    map: &CouplingMap,
    strategy: &InitialLayout,
) -> Result<Layout> {
    let n = circuit.num_qubits();
    let m = map.num_qubits();
    if n > m {
        return Err(TerraError::CouplingMap {
            msg: format!("circuit needs {n} qubits but device has only {m}"),
        });
    }
    match strategy {
        InitialLayout::Trivial => Ok(Layout::trivial(n, m)),
        InitialLayout::Custom(table) => {
            if table.len() != n {
                return Err(TerraError::CouplingMap {
                    msg: format!(
                        "custom layout has {} entries, circuit has {n} qubits",
                        table.len()
                    ),
                });
            }
            Layout::from_mapping(table, m)
        }
        InitialLayout::NoiseAware { edge_fidelity, qubit_fidelity } => {
            choose_noise_aware_layout(circuit, map, edge_fidelity, qubit_fidelity)
        }
        InitialLayout::Dense => {
            // Interaction graph: logical-qubit pair weights.
            let mut weight: HashMap<(usize, usize), usize> = HashMap::new();
            let mut degree = vec![0usize; n];
            for inst in circuit.instructions() {
                if inst.op.is_gate() && inst.qubits.len() == 2 {
                    let (a, b) =
                        (inst.qubits[0].min(inst.qubits[1]), inst.qubits[0].max(inst.qubits[1]));
                    *weight.entry((a, b)).or_insert(0) += 1;
                    degree[inst.qubits[0]] += 1;
                    degree[inst.qubits[1]] += 1;
                }
            }
            // Order logical qubits by interaction degree (desc).
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by_key(|&l| Reverse(degree[l]));
            // Physical qubits by connectivity degree (desc).
            let mut taken = vec![false; m];
            let mut table = vec![usize::MAX; n];
            let phys_degree: Vec<usize> = (0..m).map(|p| map.neighbors(p).len()).collect();
            for &l in &order {
                // Prefer a free neighbour of an already-placed partner.
                let mut best: Option<usize> = None;
                let mut best_score = (usize::MAX, Reverse(0usize));
                for p in 0..m {
                    if taken[p] {
                        continue;
                    }
                    // Sum of distances to already-placed partners, weighted.
                    let mut dist_cost = 0usize;
                    for (&(a, b), &w) in &weight {
                        let partner = if a == l {
                            b
                        } else if b == l {
                            a
                        } else {
                            continue;
                        };
                        if table[partner] != usize::MAX {
                            let d = map.distance(p, table[partner]);
                            if d == usize::MAX {
                                dist_cost = usize::MAX;
                                break;
                            }
                            dist_cost = dist_cost.saturating_add(w * d);
                        }
                    }
                    let score = (dist_cost, Reverse(phys_degree[p]));
                    if score < best_score {
                        best_score = score;
                        best = Some(p);
                    }
                }
                let p = best.ok_or_else(|| TerraError::CouplingMap {
                    msg: "no free physical qubit".to_owned(),
                })?;
                table[l] = p;
                taken[p] = true;
            }
            Layout::from_mapping(&table, m)
        }
    }
}

/// Calibration-driven greedy placement: interaction-weighted sum of
/// negative-log path fidelities, readout fidelity as the tie-breaker.
fn choose_noise_aware_layout(
    circuit: &QuantumCircuit,
    map: &CouplingMap,
    edge_fidelity: &[((usize, usize), f64)],
    qubit_fidelity: &[f64],
) -> Result<Layout> {
    let n = circuit.num_qubits();
    let m = map.num_qubits();
    // Edge costs: -ln(fidelity), defaulting to 0.99.
    let mut edge_cost: HashMap<(usize, usize), f64> = HashMap::new();
    let lookup = |a: usize, b: usize| -> f64 {
        let key = (a.min(b), a.max(b));
        edge_fidelity
            .iter()
            .find(|((x, y), _)| (*x.min(y), *x.max(y)) == key)
            .map(|&(_, f)| f)
            .unwrap_or(0.99)
            .clamp(1e-6, 1.0)
    };
    for (a, b) in map.edges() {
        let key = (a.min(b), a.max(b));
        edge_cost.entry(key).or_insert_with(|| -lookup(a, b).ln());
    }
    // All-pairs min-cost over the undirected graph (Floyd-Warshall; device
    // sizes are small).
    let mut cost = vec![vec![f64::INFINITY; m]; m];
    for (p, row) in cost.iter_mut().enumerate() {
        row[p] = 0.0;
    }
    for (&(a, b), &c) in &edge_cost {
        if c < cost[a][b] {
            cost[a][b] = c;
            cost[b][a] = c;
        }
    }
    for k in 0..m {
        for i in 0..m {
            for j in 0..m {
                let via = cost[i][k] + cost[k][j];
                if via < cost[i][j] {
                    cost[i][j] = via;
                }
            }
        }
    }
    // Interaction weights.
    let mut weight: HashMap<(usize, usize), usize> = HashMap::new();
    let mut degree = vec![0usize; n];
    for inst in circuit.instructions() {
        if inst.op.is_gate() && inst.qubits.len() == 2 {
            let (a, b) = (inst.qubits[0].min(inst.qubits[1]), inst.qubits[0].max(inst.qubits[1]));
            *weight.entry((a, b)).or_insert(0) += 1;
            degree[inst.qubits[0]] += 1;
            degree[inst.qubits[1]] += 1;
        }
    }
    let readout = |p: usize| qubit_fidelity.get(p).copied().unwrap_or(1.0);
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&l| Reverse(degree[l]));
    let mut taken = vec![false; m];
    let mut table = vec![usize::MAX; n];
    for &l in &order {
        let mut best: Option<(f64, usize)> = None;
        for p in 0..m {
            if taken[p] {
                continue;
            }
            let mut placement_cost = 0.0f64;
            for (&(a, b), &w) in &weight {
                let partner = if a == l {
                    b
                } else if b == l {
                    a
                } else {
                    continue;
                };
                if table[partner] != usize::MAX {
                    placement_cost += w as f64 * cost[p][table[partner]];
                }
            }
            // Readout quality as a small additive preference.
            placement_cost += -readout(p).clamp(1e-6, 1.0).ln();
            if best.is_none_or(|(c, _)| placement_cost < c) {
                best = Some((placement_cost, p));
            }
        }
        let (_, p) = best
            .ok_or_else(|| TerraError::CouplingMap { msg: "no free physical qubit".to_owned() })?;
        table[l] = p;
        taken[p] = true;
    }
    Layout::from_mapping(&table, m)
}

/// Maps `circuit` (already decomposed to `{1q, CX}` plus measures/resets/
/// barriers) onto the device described by `map`.
///
/// # Errors
///
/// Returns an error when the device is too small, disconnected for the
/// required interactions, or a multi-qubit gate other than CX/SWAP remains.
pub fn map_circuit(
    circuit: &QuantumCircuit,
    map: &CouplingMap,
    kind: MapperKind,
    initial: &InitialLayout,
) -> Result<MappingResult> {
    let mut layout = choose_initial_layout(circuit, map, initial)?;
    if kind == MapperKind::Sabre && matches!(initial, InitialLayout::Trivial | InitialLayout::Dense)
    {
        // Bidirectional refinement only when the caller did not pin the
        // placement (custom and noise-aware layouts are authoritative).
        layout = sabre_refine_layout(circuit, map, layout)?;
    }
    let initial_layout = layout.to_physical_vec();
    let mut ctx = MappingContext::new(circuit, map, layout)?;
    match kind {
        MapperKind::Basic => ctx.run_basic()?,
        MapperKind::AStar => ctx.run_astar()?,
        MapperKind::Sabre => ctx.run_sabre()?,
    }
    Ok(MappingResult {
        final_layout: ctx.layout.to_physical_vec(),
        circuit: ctx.out,
        initial_layout,
        num_swaps: ctx.num_swaps,
    })
}

/// SABRE's bidirectional layout search: route the circuit forward, then
/// route its reverse starting from the forward pass's final layout, and
/// repeat. Each traversal drags the placement towards where the *other*
/// end of the circuit wants its qubits, so after a few rounds the initial
/// layout suits the whole circuit rather than just its first layer. The
/// layout whose forward traversal needed the fewest swaps wins.
fn sabre_refine_layout(
    circuit: &QuantumCircuit,
    map: &CouplingMap,
    seed_layout: Layout,
) -> Result<Layout> {
    const ROUNDS: usize = 3;
    // Reversed gate sequence (measurement/reset/barrier order is irrelevant
    // for placement, so only gates are kept).
    let mut reversed = circuit.clone();
    reversed.clear();
    for inst in circuit.instructions().iter().rev() {
        if inst.op.is_gate() {
            reversed.push(inst.clone())?;
        }
    }

    let route = |source: &QuantumCircuit, layout: Layout| -> Result<(usize, Layout)> {
        let mut ctx = MappingContext::new(source, map, layout)?;
        ctx.run_sabre()?;
        Ok((ctx.num_swaps, ctx.layout))
    };

    let mut layout = seed_layout;
    let mut best: Option<(usize, Layout)> = None;
    for _ in 0..ROUNDS {
        let (cost, after_forward) = route(circuit, layout.clone())?;
        if best.as_ref().is_none_or(|(c, _)| cost < *c) {
            best = Some((cost, layout.clone()));
        }
        // The reverse traversal's end state becomes the next trial layout.
        let (_, after_reverse) = route(&reversed, after_forward)?;
        layout = after_reverse;
    }
    Ok(best.expect("at least one round ran").1)
}

/// Shared state of the mapping algorithms.
struct MappingContext<'a> {
    source: &'a QuantumCircuit,
    map: &'a CouplingMap,
    dist: Vec<Vec<usize>>,
    layout: Layout,
    out: QuantumCircuit,
    num_swaps: usize,
}

impl<'a> MappingContext<'a> {
    fn new(source: &'a QuantumCircuit, map: &'a CouplingMap, layout: Layout) -> Result<Self> {
        for inst in source.instructions() {
            if inst.op.is_gate() && inst.qubits.len() > 2 {
                return Err(TerraError::Transpile {
                    msg: format!(
                        "mapping requires a decomposed circuit, found {}-qubit gate '{}'",
                        inst.qubits.len(),
                        inst.op.name()
                    ),
                });
            }
        }
        if !map.is_connected() {
            return Err(TerraError::CouplingMap { msg: "coupling map is disconnected".to_owned() });
        }
        // Device-wide quantum register, mirroring the source's clbits.
        let mut out = QuantumCircuit::empty();
        out.add_qreg("q", map.num_qubits())?;
        for creg in source.cregs() {
            out.add_creg(creg.name(), creg.len())?;
        }
        out.set_name(format!("{}_mapped", source.name()));
        Ok(Self { source, map, dist: map.distance_matrix(), layout, out, num_swaps: 0 })
    }

    /// Emits an instruction with logical operands relabeled to physical.
    fn emit_relabel(&mut self, inst: &Instruction) -> Result<()> {
        let mut relabeled = inst.clone();
        for q in &mut relabeled.qubits {
            *q = self.layout.physical(*q).expect("complete layout");
        }
        self.out.push(relabeled)?;
        Ok(())
    }

    /// Emits a SWAP on two physical qubits and updates the layout.
    fn emit_swap(&mut self, p1: usize, p2: usize) -> Result<()> {
        self.out.append(Gate::Swap, &[p1, p2])?;
        self.layout.swap_physical(p1, p2);
        self.num_swaps += 1;
        Ok(())
    }

    fn physical_pair(&self, inst: &Instruction) -> (usize, usize) {
        (
            self.layout.physical(inst.qubits[0]).expect("complete layout"),
            self.layout.physical(inst.qubits[1]).expect("complete layout"),
        )
    }

    fn is_executable(&self, inst: &Instruction) -> bool {
        if !inst.op.is_gate() || inst.qubits.len() < 2 {
            return true;
        }
        let (pc, pt) = self.physical_pair(inst);
        self.map.connected(pc, pt)
    }

    // --- Basic mapper ----------------------------------------------------

    /// Routes every two-qubit gate independently along a shortest path,
    /// moving the control towards the target.
    fn run_basic(&mut self) -> Result<()> {
        for inst in self.source.instructions() {
            if inst.op.is_gate() && inst.qubits.len() == 2 {
                let (pc, pt) = self.physical_pair(inst);
                if !self.map.connected(pc, pt) {
                    let path = self.map.shortest_path(pc, pt).ok_or_else(|| {
                        TerraError::CouplingMap { msg: format!("no path between Q{pc} and Q{pt}") }
                    })?;
                    // Swap the control along the path until adjacent.
                    for w in path.windows(2).take(path.len().saturating_sub(2)) {
                        self.emit_swap(w[0], w[1])?;
                    }
                }
            }
            self.emit_relabel(inst)?;
        }
        Ok(())
    }

    // --- Dependency tracking shared by SABRE and A* ------------------------

    /// Builds, per instruction, the count of unexecuted same-wire
    /// predecessors, and the ready queue.
    fn dependency_state(&self) -> DependencyState {
        let insts = self.source.instructions();
        let num_wires = self.source.num_qubits() + self.source.num_clbits();
        let mut last_on_wire: Vec<Option<usize>> = vec![None; num_wires];
        let mut preds: Vec<usize> = vec![0; insts.len()];
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); insts.len()];
        for (i, inst) in insts.iter().enumerate() {
            let mut wires: Vec<usize> = inst.qubits.clone();
            for &c in &inst.clbits {
                wires.push(self.source.num_qubits() + c);
            }
            if let Some(cond) = &inst.condition {
                for &c in &cond.clbits {
                    wires.push(self.source.num_qubits() + c);
                }
            }
            wires.sort_unstable();
            wires.dedup();
            for &w in &wires {
                if let Some(p) = last_on_wire[w] {
                    if !succs[p].contains(&i) {
                        succs[p].push(i);
                        preds[i] += 1;
                    }
                }
                last_on_wire[w] = Some(i);
            }
        }
        let ready: VecDeque<usize> = (0..insts.len()).filter(|&i| preds[i] == 0).collect();
        DependencyState { preds, succs, ready, done: vec![false; insts.len()], held: Vec::new() }
    }

    /// Executes ready instruction `i` and marks it done. A terminal measure
    /// (no later instruction on its qubit or its clbit) is held instead of
    /// emitted: [`Self::emit_held`] places it after routing, on the final
    /// layout, so no SWAP inserted later passes through a measured qubit
    /// and the routed circuit stays measurement-terminal. A measure whose
    /// clbit a later conditional reads has a successor and stays in place.
    fn execute(&mut self, dep: &mut DependencyState, i: usize) -> Result<()> {
        let inst = &self.source.instructions()[i];
        dep.ready.retain(|&x| x != i);
        if matches!(inst.op, Operation::Measure) && dep.succs[i].is_empty() {
            dep.held.push(i);
        } else {
            self.emit_relabel(inst)?;
        }
        self.complete(dep, i);
        Ok(())
    }

    /// Emits the held terminal measures on the final layout.
    fn emit_held(&mut self, dep: &DependencyState) -> Result<()> {
        for &i in &dep.held {
            self.emit_relabel(&self.source.instructions()[i])?;
        }
        Ok(())
    }

    /// Marks `i` executed, promoting any successors that become ready.
    fn complete(&self, dep: &mut DependencyState, i: usize) {
        dep.done[i] = true;
        for &s in &dep.succs[i].clone() {
            dep.preds[s] -= 1;
            if dep.preds[s] == 0 {
                dep.ready.push_back(s);
            }
        }
    }

    /// Distance cost of a two-qubit gate under an arbitrary layout table.
    fn gate_distance(&self, l2p: &[usize], inst: &Instruction) -> usize {
        let pc = l2p[inst.qubits[0]];
        let pt = l2p[inst.qubits[1]];
        self.dist[pc][pt]
    }

    // --- SABRE mapper -------------------------------------------------------

    /// One SABRE routing traversal: decay-weighted scoring over the blocked
    /// front layer plus an extended set of upcoming two-qubit gates.
    ///
    /// Front and extended costs are *averaged* (so a large extended set
    /// cannot drown out the front layer), and each candidate swap's score
    /// is scaled by a per-qubit decay factor that grows every time a qubit
    /// participates in a swap — spreading consecutive swaps across the
    /// device instead of ping-ponging one pair (the ASPLOS'19 heuristic).
    fn run_sabre(&mut self) -> Result<()> {
        const EXTENDED_SIZE: usize = 20;
        const EXTENDED_WEIGHT: f64 = 0.5;
        const DECAY_INCREMENT: f64 = 0.001;
        const DECAY_RESET_INTERVAL: usize = 5;
        let insts = self.source.instructions();
        let mut dep = self.dependency_state();
        let mut decay = vec![1.0f64; self.map.num_qubits()];
        let mut swaps_since_reset = 0usize;
        let mut stall_counter = 0usize;
        let stall_limit = 4 * self.map.num_qubits() * self.map.num_qubits() + 16;

        loop {
            // Drain everything executable.
            let mut progressed = true;
            while progressed {
                progressed = false;
                let snapshot: Vec<usize> = dep.ready.iter().copied().collect();
                for i in snapshot {
                    if dep.done[i] {
                        continue;
                    }
                    if self.is_executable(&insts[i]) {
                        self.execute(&mut dep, i)?;
                        progressed = true;
                        stall_counter = 0;
                        // A gate executed: the congestion picture changed.
                        decay.iter_mut().for_each(|d| *d = 1.0);
                        swaps_since_reset = 0;
                    }
                }
            }
            let front: Vec<usize> = dep.ready.iter().copied().collect();
            if front.is_empty() {
                break;
            }
            // Extended set: the next 2q gates in program order (an
            // approximation of the dependency-successor closure that keeps
            // scoring deterministic).
            let extended: Vec<usize> = (0..insts.len())
                .filter(|&i| {
                    !dep.done[i]
                        && !front.contains(&i)
                        && insts[i].op.is_gate()
                        && insts[i].qubits.len() == 2
                })
                .take(EXTENDED_SIZE)
                .collect();

            let mut candidates: Vec<(usize, usize)> = Vec::new();
            for &i in &front {
                for &l in &insts[i].qubits {
                    let p = self.layout.physical(l).expect("complete layout");
                    for nb in self.map.neighbors(p) {
                        let e = (p.min(nb), p.max(nb));
                        if !candidates.contains(&e) {
                            candidates.push(e);
                        }
                    }
                }
            }
            let l2p = self.layout.to_physical_vec();
            let mut best: Option<((usize, usize), f64)> = None;
            for &(p1, p2) in &candidates {
                let mut trial = l2p.clone();
                for v in trial.iter_mut() {
                    if *v == p1 {
                        *v = p2;
                    } else if *v == p2 {
                        *v = p1;
                    }
                }
                let front_cost: usize =
                    front.iter().map(|&i| self.gate_distance(&trial, &insts[i])).sum();
                let extended_cost: usize =
                    extended.iter().map(|&i| self.gate_distance(&trial, &insts[i])).sum();
                let mut score = front_cost as f64 / front.len() as f64;
                if !extended.is_empty() {
                    score += EXTENDED_WEIGHT * extended_cost as f64 / extended.len() as f64;
                }
                score *= decay[p1].max(decay[p2]);
                if best.is_none_or(|(_, s)| score < s) {
                    best = Some(((p1, p2), score));
                }
            }
            stall_counter += 1;
            if stall_counter > stall_limit {
                // Safeguard against heuristic livelock: route the first
                // blocked gate along a shortest path directly.
                let i = front[0];
                let (pc, pt) = self.physical_pair(&insts[i]);
                let path = self.map.shortest_path(pc, pt).ok_or_else(|| {
                    TerraError::CouplingMap { msg: format!("no path between Q{pc} and Q{pt}") }
                })?;
                for w in path.windows(2).take(path.len().saturating_sub(2)) {
                    self.emit_swap(w[0], w[1])?;
                }
                stall_counter = 0;
                continue;
            }
            let ((p1, p2), _) = best.ok_or_else(|| TerraError::CouplingMap {
                msg: "no candidate swap available".to_owned(),
            })?;
            self.emit_swap(p1, p2)?;
            decay[p1] += DECAY_INCREMENT;
            decay[p2] += DECAY_INCREMENT;
            swaps_since_reset += 1;
            if swaps_since_reset >= DECAY_RESET_INTERVAL {
                decay.iter_mut().for_each(|d| *d = 1.0);
                swaps_since_reset = 0;
            }
        }
        self.emit_held(&dep)
    }

    // --- A* mapper ---------------------------------------------------------

    fn run_astar(&mut self) -> Result<()> {
        let insts = self.source.instructions();
        let mut dep = self.dependency_state();
        loop {
            // Emit all executable ready instructions.
            let mut progressed = true;
            while progressed {
                progressed = false;
                let snapshot: Vec<usize> = dep.ready.iter().copied().collect();
                for i in snapshot {
                    if dep.done[i] {
                        continue;
                    }
                    if self.is_executable(&insts[i]) {
                        self.execute(&mut dep, i)?;
                        progressed = true;
                    }
                }
            }
            // The blocked layer: all ready 2q gates (disjoint qubits by
            // construction — each qubit has at most one ready instruction).
            let layer: Vec<&Instruction> = dep.ready.iter().map(|&i| &insts[i]).collect();
            if layer.is_empty() {
                break;
            }
            let swaps = self.astar_layer(&layer)?;
            for (p1, p2) in swaps {
                self.emit_swap(p1, p2)?;
            }
            // Loop continues; the layer is now executable.
        }
        self.emit_held(&dep)
    }

    /// A* search for a minimal swap sequence making every gate in `layer`
    /// executable. Returns the sequence of physical swaps.
    fn astar_layer(&self, layer: &[&Instruction]) -> Result<Vec<(usize, usize)>> {
        const NODE_LIMIT: usize = 200_000;

        #[derive(Clone, PartialEq, Eq)]
        struct Node {
            l2p: Vec<usize>,
            swaps: Vec<(usize, usize)>,
        }

        let start = self.layout.to_physical_vec();
        let h = |l2p: &[usize]| -> usize {
            // Each swap can shorten at most two gate distances by one:
            // sum(dist - 1 over unsatisfied gates) / 2, rounded up, is an
            // admissible heuristic for swap count.
            let total: usize =
                layer.iter().map(|inst| self.gate_distance(l2p, inst).saturating_sub(1)).sum();
            total.div_ceil(2)
        };
        let satisfied =
            |l2p: &[usize]| -> bool { layer.iter().all(|inst| self.gate_distance(l2p, inst) == 1) };
        if satisfied(&start) {
            return Ok(Vec::new());
        }

        // Undirected edge list once.
        let mut edges: Vec<(usize, usize)> = Vec::new();
        for (c, t) in self.map.edges() {
            let e = (c.min(t), c.max(t));
            if !edges.contains(&e) {
                edges.push(e);
            }
        }

        let mut heap: BinaryHeap<(Reverse<usize>, Reverse<usize>, usize)> = BinaryHeap::new();
        let mut nodes: Vec<Node> = vec![Node { l2p: start.clone(), swaps: Vec::new() }];
        let mut best_g: HashMap<Vec<usize>, usize> = HashMap::new();
        best_g.insert(start.clone(), 0);
        heap.push((Reverse(h(&start)), Reverse(0), 0));
        let mut explored = 0usize;

        while let Some((_, Reverse(g), idx)) = heap.pop() {
            explored += 1;
            if explored > NODE_LIMIT {
                break;
            }
            let node = nodes[idx].clone();
            if satisfied(&node.l2p) {
                return Ok(node.swaps);
            }
            if best_g.get(&node.l2p).copied().unwrap_or(usize::MAX) < g {
                continue; // stale entry
            }
            // Expand: swaps on edges touching a layer-relevant qubit.
            for &(p1, p2) in &edges {
                let relevant = layer.iter().any(|inst| {
                    inst.qubits.iter().any(|&l| node.l2p[l] == p1 || node.l2p[l] == p2)
                });
                if !relevant {
                    continue;
                }
                let mut next = node.l2p.clone();
                for v in next.iter_mut() {
                    if *v == p1 {
                        *v = p2;
                    } else if *v == p2 {
                        *v = p1;
                    }
                }
                let ng = g + 1;
                if best_g.get(&next).copied().unwrap_or(usize::MAX) <= ng {
                    continue;
                }
                best_g.insert(next.clone(), ng);
                let mut swaps = node.swaps.clone();
                swaps.push((p1, p2));
                let f = ng + h(&next);
                nodes.push(Node { l2p: next, swaps });
                heap.push((Reverse(f), Reverse(ng), nodes.len() - 1));
            }
        }
        // Node limit hit — fall back to routing the first gate directly.
        let inst = layer[0];
        let pc = start[inst.qubits[0]];
        let pt = start[inst.qubits[1]];
        let path = self
            .map
            .shortest_path(pc, pt)
            .ok_or_else(|| TerraError::CouplingMap { msg: format!("no path Q{pc}->Q{pt}") })?;
        Ok(path.windows(2).take(path.len().saturating_sub(2)).map(|w| (w[0], w[1])).collect())
    }
}

struct DependencyState {
    preds: Vec<usize>,
    succs: Vec<Vec<usize>>,
    ready: VecDeque<usize>,
    done: Vec<bool>,
    /// Terminal measures awaiting emission on the final layout.
    held: Vec<usize>,
}

/// Decomposes the SWAP gates a mapper inserted into CNOTs and rewrites every
/// CNOT that violates the coupling direction using Hadamard conjugation
/// (`CX(c,t) = (H⊗H) · CX(t,c) · (H⊗H)`), exactly the transformation shown
/// in the paper's Fig. 4a.
///
/// # Errors
///
/// Returns an error if a CNOT acts on non-adjacent physical qubits (the
/// mapper must have been run first).
pub fn fix_directions(circuit: &QuantumCircuit, map: &CouplingMap) -> Result<QuantumCircuit> {
    let mut out = circuit.clone();
    out.clear();
    out.add_global_phase(circuit.global_phase());
    for inst in circuit.instructions() {
        match inst.as_gate() {
            Some(Gate::Swap) => {
                let (a, b) = (inst.qubits[0], inst.qubits[1]);
                // SWAP = CX(a,b) CX(b,a) CX(a,b); each CX direction-fixed.
                for (c, t) in [(a, b), (b, a), (a, b)] {
                    push_cx_fixed(&mut out, map, c, t, inst.condition.clone())?;
                }
            }
            Some(Gate::CX) => {
                push_cx_fixed(
                    &mut out,
                    map,
                    inst.qubits[0],
                    inst.qubits[1],
                    inst.condition.clone(),
                )?;
            }
            Some(g) if g.num_qubits() > 1 => {
                return Err(TerraError::Transpile {
                    msg: format!("direction pass found undirected multi-qubit gate '{}'", g.name()),
                });
            }
            _ => {
                out.push(inst.clone())?;
            }
        }
    }
    Ok(out)
}

fn push_cx_fixed(
    out: &mut QuantumCircuit,
    map: &CouplingMap,
    c: usize,
    t: usize,
    condition: Option<crate::instruction::Condition>,
) -> Result<()> {
    let mut push = |gate: Gate, qubits: Vec<usize>| -> Result<()> {
        let mut inst = Instruction::gate(gate, qubits);
        inst.condition = condition.clone();
        out.push(inst)?;
        Ok(())
    };
    if map.has_edge(c, t) {
        push(Gate::CX, vec![c, t])
    } else if map.has_edge(t, c) {
        push(Gate::H, vec![c])?;
        push(Gate::H, vec![t])?;
        push(Gate::CX, vec![t, c])?;
        push(Gate::H, vec![c])?;
        push(Gate::H, vec![t])
    } else {
        Err(TerraError::CouplingMap {
            msg: format!("CNOT on non-adjacent physical qubits Q{c}, Q{t}"),
        })
    }
}

/// Checks that every CNOT in `circuit` satisfies the device's directed
/// CNOT-constraints and that no other multi-qubit gates remain — the
/// acceptance test for a fully mapped circuit.
pub fn satisfies_coupling(circuit: &QuantumCircuit, map: &CouplingMap) -> bool {
    circuit.instructions().iter().all(|inst| match inst.as_gate() {
        Some(Gate::CX) => map.has_edge(inst.qubits[0], inst.qubits[1]),
        Some(g) => g.num_qubits() == 1,
        None => true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::fig1_circuit;
    use crate::instruction::Operation;
    use crate::matrix::state_fidelity;
    use crate::reference;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// End-to-end semantic check: embedding the logical input under the
    /// initial layout, running the mapped circuit, must equal the original
    /// output embedded under the final layout.
    fn assert_mapping_equivalent(circuit: &QuantumCircuit, map: &CouplingMap, kind: MapperKind) {
        let result = map_circuit(circuit, map, kind, &InitialLayout::Trivial).unwrap();
        let fixed = fix_directions(&result.circuit, map).unwrap();
        assert!(satisfies_coupling(&fixed, map), "{kind:?} violates coupling");
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..3 {
            let input = reference::random_state(circuit.num_qubits(), &mut rng);
            let expected_logical = reference::evolve(circuit, &input).unwrap();
            let phys_in = reference::embed_state(&input, &result.initial_layout, map.num_qubits());
            let phys_out = reference::evolve(&fixed, &phys_in).unwrap();
            let expected_phys =
                reference::embed_state(&expected_logical, &result.final_layout, map.num_qubits());
            let f = state_fidelity(&phys_out, &expected_phys);
            assert!(f > 1.0 - 1e-9, "{kind:?} fidelity {f}");
        }
    }

    #[test]
    fn fig1_on_qx4_all_mappers_equivalent() {
        let circ = fig1_circuit();
        let qx4 = CouplingMap::ibm_qx4();
        for kind in [MapperKind::Basic, MapperKind::AStar, MapperKind::Sabre] {
            assert_mapping_equivalent(&circ, &qx4, kind);
        }
    }

    #[test]
    fn astar_never_needs_more_swaps_than_basic_on_fig1() {
        let circ = fig1_circuit();
        let qx4 = CouplingMap::ibm_qx4();
        let basic = map_circuit(&circ, &qx4, MapperKind::Basic, &InitialLayout::Trivial).unwrap();
        let astar = map_circuit(&circ, &qx4, MapperKind::AStar, &InitialLayout::Trivial).unwrap();
        assert!(
            astar.num_swaps <= basic.num_swaps,
            "A* used {} swaps, basic used {}",
            astar.num_swaps,
            basic.num_swaps
        );
    }

    #[test]
    fn adjacent_gates_need_no_swaps() {
        let mut circ = QuantumCircuit::new(2);
        circ.h(0).unwrap();
        circ.cx(1, 0).unwrap();
        let qx4 = CouplingMap::ibm_qx4();
        for kind in [MapperKind::Basic, MapperKind::AStar, MapperKind::Sabre] {
            let r = map_circuit(&circ, &qx4, kind, &InitialLayout::Trivial).unwrap();
            assert_eq!(r.num_swaps, 0, "{kind:?}");
            assert_eq!(r.initial_layout, r.final_layout);
        }
    }

    #[test]
    fn direction_fix_adds_hadamards() {
        // cx q0,q1 on QX4: only Q1->Q0 exists, so H conjugation is needed.
        let mut circ = QuantumCircuit::new(2);
        circ.cx(0, 1).unwrap();
        let qx4 = CouplingMap::ibm_qx4();
        let r = map_circuit(&circ, &qx4, MapperKind::Basic, &InitialLayout::Trivial).unwrap();
        let fixed = fix_directions(&r.circuit, &qx4).unwrap();
        assert_eq!(fixed.count_ops()["h"], 4);
        assert_eq!(fixed.count_ops()["cx"], 1);
        assert!(satisfies_coupling(&fixed, &qx4));
    }

    #[test]
    fn swap_decomposition_respects_directions() {
        // Force a swap on QX4 between distance-2 qubits.
        let mut circ = QuantumCircuit::new(5);
        circ.cx(0, 3).unwrap();
        let qx4 = CouplingMap::ibm_qx4();
        let r = map_circuit(&circ, &qx4, MapperKind::Basic, &InitialLayout::Trivial).unwrap();
        assert!(r.num_swaps >= 1);
        let fixed = fix_directions(&r.circuit, &qx4).unwrap();
        assert!(satisfies_coupling(&fixed, &qx4));
    }

    #[test]
    fn measurements_are_relabeled_to_final_positions() {
        let mut circ = QuantumCircuit::with_size(3, 3);
        circ.h(0).unwrap();
        circ.cx(0, 2).unwrap();
        circ.cx(2, 1).unwrap();
        for q in 0..3 {
            circ.measure(q, q).unwrap();
        }
        let line = CouplingMap::line(3);
        let r = map_circuit(&circ, &line, MapperKind::Sabre, &InitialLayout::Trivial).unwrap();
        // Every measurement's qubit must be the physical home of its logical
        // qubit at measure time (final layout, since measures come last).
        for inst in r.circuit.instructions() {
            if matches!(inst.op, Operation::Measure) {
                let logical = inst.clbits[0];
                assert_eq!(inst.qubits[0], r.final_layout[logical]);
            }
        }
    }

    /// `true` when no instruction touches a qubit after its measurement.
    fn measurement_terminal(circuit: &QuantumCircuit) -> bool {
        let mut measured = vec![false; circuit.num_qubits()];
        for inst in circuit.instructions() {
            if inst.qubits.iter().any(|&q| measured[q]) {
                return false;
            }
            if matches!(inst.op, Operation::Measure) {
                measured[inst.qubits[0]] = true;
            }
        }
        true
    }

    #[test]
    fn routed_circuits_stay_measurement_terminal() {
        // Each qubit is measured right after its last gate, so its measure
        // is ready while the others still need SWAPs, which may pass
        // through its physical qubit unless the router holds the measure.
        let mut rng = StdRng::seed_from_u64(3);
        for trial in 0..8 {
            let n = 5;
            let mut gates = Vec::new();
            for _ in 0..24 {
                let a = rng.gen_range(0..n);
                let b = (a + rng.gen_range(1..n)) % n;
                gates.push((a, b));
            }
            let mut circ = QuantumCircuit::with_size(n, n);
            for (i, &(a, b)) in gates.iter().enumerate() {
                circ.h(a).unwrap();
                circ.cx(a, b).unwrap();
                for q in [a, b] {
                    if gates[i + 1..].iter().all(|&(x, y)| x != q && y != q) {
                        circ.measure(q, q).unwrap();
                    }
                }
            }
            for map in [CouplingMap::line(n), CouplingMap::ibm_qx5()] {
                for kind in [MapperKind::AStar, MapperKind::Sabre] {
                    let r = map_circuit(&circ, &map, kind, &InitialLayout::Trivial).unwrap();
                    assert!(measurement_terminal(&r.circuit), "{kind:?} trial {trial}");
                    for inst in r.circuit.instructions() {
                        if matches!(inst.op, Operation::Measure) {
                            assert_eq!(inst.qubits[0], r.final_layout[inst.clbits[0]]);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_measure_read_by_a_later_conditional_stays_in_place() {
        let mut circ = QuantumCircuit::with_size(3, 3);
        circ.h(0).unwrap();
        circ.measure(0, 0).unwrap();
        circ.append_conditional(Gate::X, &[2], "c", 1).unwrap();
        circ.cx(0, 2).unwrap();
        circ.measure(1, 1).unwrap();
        circ.measure(2, 2).unwrap();
        for kind in [MapperKind::AStar, MapperKind::Sabre] {
            let r =
                map_circuit(&circ, &CouplingMap::line(3), kind, &InitialLayout::Trivial).unwrap();
            let insts = r.circuit.instructions();
            let position = |pred: &dyn Fn(&Instruction) -> bool| {
                insts.iter().position(pred).expect("instruction kept")
            };
            let first_measure = position(&|inst| inst.clbits == [0]);
            let conditional = position(&|inst| inst.condition.is_some());
            assert!(first_measure < conditional, "{kind:?}: the read measure moved");
        }
    }

    #[test]
    fn random_circuits_stay_equivalent_on_line_and_qx5() {
        let mut rng = StdRng::seed_from_u64(42);
        for trial in 0..4 {
            let n = 4;
            let mut circ = QuantumCircuit::new(n);
            for _ in 0..12 {
                match rng.gen_range(0..3) {
                    0 => {
                        circ.h(rng.gen_range(0..n)).unwrap();
                    }
                    1 => {
                        circ.t(rng.gen_range(0..n)).unwrap();
                    }
                    _ => {
                        let a = rng.gen_range(0..n);
                        let mut b = rng.gen_range(0..n);
                        while b == a {
                            b = rng.gen_range(0..n);
                        }
                        circ.cx(a, b).unwrap();
                    }
                }
            }
            let map = if trial % 2 == 0 { CouplingMap::line(n) } else { CouplingMap::ibm_qx5() };
            for kind in [MapperKind::Basic, MapperKind::AStar, MapperKind::Sabre] {
                assert_mapping_equivalent(&circ, &map, kind);
            }
        }
    }

    #[test]
    fn dense_layout_prefers_connected_regions() {
        // Star circuit: q0 interacts with everyone; dense layout should put
        // q0 on the best-connected physical qubit of QX4 (Q2, degree 4).
        let mut circ = QuantumCircuit::new(4);
        circ.cx(0, 1).unwrap();
        circ.cx(0, 2).unwrap();
        circ.cx(0, 3).unwrap();
        let layout =
            choose_initial_layout(&circ, &CouplingMap::ibm_qx4(), &InitialLayout::Dense).unwrap();
        assert_eq!(layout.physical(0), Some(2));
    }

    #[test]
    fn noise_aware_layout_avoids_bad_edges() {
        // Ring of 4 with one terrible edge (0,1): a Bell circuit must land
        // on any other edge.
        let ring = CouplingMap::ring(4);
        let mut circ = QuantumCircuit::new(2);
        circ.cx(0, 1).unwrap();
        let strategy = InitialLayout::NoiseAware {
            edge_fidelity: vec![((0, 1), 0.5), ((1, 2), 0.99), ((2, 3), 0.99), ((3, 0), 0.99)],
            qubit_fidelity: vec![],
        };
        let layout = choose_initial_layout(&circ, &ring, &strategy).unwrap();
        let (p0, p1) = (layout.physical(0).unwrap(), layout.physical(1).unwrap());
        let pair = (p0.min(p1), p0.max(p1));
        assert_ne!(pair, (0, 1), "must avoid the bad edge, got {pair:?}");
        assert!(ring.connected(p0, p1), "partners should still be adjacent");
    }

    #[test]
    fn noise_aware_layout_prefers_good_readout() {
        // Single-qubit circuit: placement driven purely by readout quality.
        let line = CouplingMap::line(3);
        let mut circ = QuantumCircuit::new(1);
        circ.h(0).unwrap();
        let strategy = InitialLayout::NoiseAware {
            edge_fidelity: vec![],
            qubit_fidelity: vec![0.80, 0.99, 0.90],
        };
        let layout = choose_initial_layout(&circ, &line, &strategy).unwrap();
        assert_eq!(layout.physical(0), Some(1), "best-readout qubit wins");
    }

    #[test]
    fn custom_layout_is_respected_and_validated() {
        let circ = fig1_circuit();
        let qx4 = CouplingMap::ibm_qx4();
        let r =
            map_circuit(&circ, &qx4, MapperKind::Sabre, &InitialLayout::Custom(vec![4, 3, 2, 1]))
                .unwrap();
        assert_eq!(r.initial_layout, vec![4, 3, 2, 1]);
        assert!(
            choose_initial_layout(&circ, &qx4, &InitialLayout::Custom(vec![0, 0, 1, 2])).is_err()
        );
        assert!(choose_initial_layout(&circ, &qx4, &InitialLayout::Custom(vec![0])).is_err());
    }

    #[test]
    fn too_large_circuit_is_rejected() {
        let circ = QuantumCircuit::new(6);
        let qx4 = CouplingMap::ibm_qx4();
        assert!(map_circuit(&circ, &qx4, MapperKind::Basic, &InitialLayout::Trivial).is_err());
    }

    #[test]
    fn unmapped_nonadjacent_cx_fails_direction_pass() {
        let mut circ = QuantumCircuit::new(5);
        circ.cx(0, 3).unwrap();
        assert!(fix_directions(&circ, &CouplingMap::ibm_qx4()).is_err());
    }

    #[test]
    fn three_qubit_gate_rejected_by_mapper() {
        let mut circ = QuantumCircuit::new(3);
        circ.ccx(0, 1, 2).unwrap();
        let err =
            map_circuit(&circ, &CouplingMap::line(3), MapperKind::Basic, &InitialLayout::Trivial)
                .unwrap_err();
        assert!(err.to_string().contains("decomposed"));
    }
}
