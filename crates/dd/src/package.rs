//! The QMDD package: nodes, unique tables, compute tables.
//!
//! This implements the decision-diagram representation the paper showcases
//! in Section V-A (Fig. 3): quantum states and operators are stored as
//! directed acyclic graphs with complex edge weights. Recursively splitting
//! a `2^n × 2^n` matrix into four `2^(n-1) × 2^(n-1)` submatrices (or a
//! state vector into two halves) and *sharing structurally equivalent
//! submatrices that differ only by a complex factor* yields representations
//! that are often exponentially more compact than the explicit arrays —
//! the basis of the DD simulator of Zulehner & Wille (TCAD'18) that was
//! integrated into Qiskit as the JKU provider.
//!
//! Canonicity is maintained by (a) weight normalization on node creation
//! (the maximum-magnitude child weight is factored out, following the
//! accuracy-oriented normalization of [38]) and (b) hash-consing through a
//! unique table with a canonicalizing complex-number table.
//!
//! # Implementation notes (the performance rebuild)
//!
//! The table layer follows "Tools for Quantum Computing Based on Decision
//! Diagrams" (Wille, Hillmich, Burgholzer) and the MQT DDSIM package:
//!
//! * unique tables and the weight table are open-addressed with an
//!   FxHash-style hash over packed node words ([`crate::tables`]);
//! * the add/mv/mm compute tables are fixed-size, direct-mapped and
//!   *lossy* — collisions evict, so cache cost is O(1) and memory is
//!   bounded regardless of circuit depth;
//! * nodes and weights live in free-list arenas with external reference
//!   counts; a threshold-triggered mark-and-sweep GC
//!   ([`DdPackage::maybe_collect`]) reclaims every node unreachable from
//!   rc-protected roots and every weight no surviving edge names (the
//!   complex-table GC of the JKU package), so long multi-gate runs no
//!   longer grow without bound.
//!
//! GC only ever runs inside [`DdPackage::collect_garbage`] /
//! [`DdPackage::maybe_collect`] — never implicitly during an operation —
//! so edges held across a collection are valid iff they were protected
//! with [`DdPackage::inc_ref`] (vectors) or [`DdPackage::inc_ref_matrix`]
//! (matrices). Protection covers the edge's top weight too, terminal edges
//! included. A [`WeightId`] taken from an unprotected edge is invalid after
//! a collection: its slot may be reused for a different value.

use crate::tables::{fx_word, pack_edge, ComputeTable, UniqueTable, WeightTable};
use qukit_terra::complex::Complex;
use std::collections::HashMap;

/// Index of a node in the package's node arena.
pub type NodeId = u32;
/// Index of a canonical complex weight in the package's weight table.
pub type WeightId = u32;

/// The terminal node (level 0).
pub const TERMINAL: NodeId = 0;
/// The canonical weight 0.
pub const W_ZERO: WeightId = 0;
/// The canonical weight 1.
pub const W_ONE: WeightId = 1;

/// A weighted edge: the unit of sharing in the DD.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Edge {
    /// Target node.
    pub node: NodeId,
    /// Canonical complex weight multiplying everything below.
    pub weight: WeightId,
}

impl Edge {
    /// The zero edge (weight 0 into the terminal).
    pub const ZERO: Edge = Edge { node: TERMINAL, weight: W_ZERO };
    /// The one edge (weight 1 into the terminal).
    pub const ONE: Edge = Edge { node: TERMINAL, weight: W_ONE };

    /// Returns `true` for the zero edge.
    pub fn is_zero(self) -> bool {
        self.weight == W_ZERO
    }

    /// Returns `true` when the edge points at the terminal node.
    pub fn is_terminal(self) -> bool {
        self.node == TERMINAL
    }
}

/// A vector-DD node: splits a state on one qubit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct VNode {
    level: u16,
    succ: [Edge; 2],
}

/// A matrix-DD node: splits an operator on one qubit
/// (`succ[row_bit * 2 + col_bit]`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MNode {
    level: u16,
    succ: [Edge; 4],
}

/// Level marker for reclaimed arena slots (no real node reaches it:
/// `DdPackage::new` rejects registers that wide).
const FREE_LEVEL: u16 = u16::MAX;

const FREE_VNODE: VNode = VNode { level: FREE_LEVEL, succ: [Edge::ZERO; 2] };
const FREE_MNODE: MNode = MNode { level: FREE_LEVEL, succ: [Edge::ZERO; 4] };

#[inline]
fn hash_vnode(node: &VNode) -> u64 {
    let h = fx_word(0, u64::from(node.level));
    let h = fx_word(h, pack_edge(node.succ[0]));
    fx_word(h, pack_edge(node.succ[1]))
}

#[inline]
fn hash_mnode(node: &MNode) -> u64 {
    let mut h = fx_word(0, u64::from(node.level));
    for edge in node.succ {
        h = fx_word(h, pack_edge(edge));
    }
    h
}

/// Tolerance for identifying complex weights (see the complex table).
pub(crate) const WEIGHT_TOLERANCE: f64 = 1e-10;

/// The tolerance bucket a (snapped) weight value is filed under in the
/// weight table.
#[inline]
fn weight_key(value: Complex) -> (i64, i64) {
    ((value.re / WEIGHT_TOLERANCE).round() as i64, (value.im / WEIGHT_TOLERANCE).round() as i64)
}

/// Adds one reference (saturating: a count that reaches `u32::MAX` stays
/// pinned).
#[inline]
fn inc_rc(rc: &mut u32) {
    *rc = rc.saturating_add(1);
}

/// Drops one reference added by [`inc_rc`].
#[inline]
fn dec_rc(rc: &mut u32) {
    debug_assert!(*rc > 0, "dec_ref without matching inc_ref");
    if *rc != u32::MAX {
        *rc -= 1;
    }
}

/// Initial unique-table capacity (slots; grows by doubling).
const UNIQUE_BITS: u32 = 12;
/// Fixed compute-table capacity (entries; never grows — lossy).
const COMPUTE_BITS: u32 = 12;
/// Initial weight-table capacity (slots; grows by doubling).
const WEIGHT_BITS: u32 = 10;
/// Default live-node count that arms the next [`DdPackage::maybe_collect`].
const DEFAULT_GC_THRESHOLD: usize = 16_384;

/// The decision-diagram package: arenas, unique tables and operation
/// caches. All edges returned by one package are only meaningful within it.
///
/// # Examples
///
/// ```
/// use qukit_dd::package::DdPackage;
///
/// let mut dd = DdPackage::new(3);
/// let zero = dd.zero_state();
/// assert_eq!(dd.vector_nodes(zero), 3);
/// assert!(dd.amplitude(zero, 0).is_approx_one());
/// ```
#[derive(Debug)]
pub struct DdPackage {
    num_qubits: usize,
    weights: Vec<Complex>,
    wrc: Vec<u32>,
    wfree: Vec<WeightId>,
    weight_table: WeightTable,
    vnodes: Vec<VNode>,
    vrc: Vec<u32>,
    vfree: Vec<NodeId>,
    vunique: UniqueTable,
    mnodes: Vec<MNode>,
    mrc: Vec<u32>,
    mfree: Vec<NodeId>,
    munique: UniqueTable,
    add_table: ComputeTable,
    mv_table: ComputeTable,
    mm_table: ComputeTable,
    cache_enabled: bool,
    gc_threshold: usize,
    peak_live: usize,
    stats: DdStats,
}

/// Health counters of a [`DdPackage`] — the signals the DD literature
/// reports first: unique-table and compute-table hit rates, weight-table
/// collisions, and garbage collection. Plain fields incremented inline
/// (every package method takes `&mut self`), so tracking is always on and
/// costs two or three integer adds per operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DdStats {
    /// Unique-table lookups that found an existing node (hash-consing won).
    pub unique_hits: u64,
    /// Unique-table lookups that allocated a fresh node.
    pub unique_misses: u64,
    /// Compute-table (add/mv/mm cache) lookups answered from the cache.
    pub compute_hits: u64,
    /// Compute-table lookups that had to recurse.
    pub compute_misses: u64,
    /// Weight interns resolved in a neighbouring tolerance bucket (hash
    /// collisions the 9-bucket probe had to unify).
    pub weight_collisions: u64,
    /// Times the compute tables were dropped (cache invalidations: every
    /// GC run plus explicit clears).
    pub gc_events: u64,
    /// Mark-and-sweep collections performed.
    pub gc_runs: u64,
    /// Nodes returned to the free lists across all collections.
    pub gc_reclaimed: u64,
    /// Weights returned to the weight free list across all collections.
    pub weights_reclaimed: u64,
}

impl DdPackage {
    /// Creates a package for up to `num_qubits` qubits.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits` exceeds `u16::MAX - 1` levels.
    pub fn new(num_qubits: usize) -> Self {
        assert!(num_qubits < u16::MAX as usize - 1, "too many qubits");
        let mut package = Self {
            num_qubits,
            weights: Vec::new(),
            wrc: Vec::new(),
            wfree: Vec::new(),
            weight_table: WeightTable::new(WEIGHT_BITS),
            // Index 0 is a placeholder for the shared terminal in both
            // arenas; level 0 and zero successors, never dereferenced.
            vnodes: vec![VNode { level: 0, succ: [Edge::ZERO; 2] }],
            vrc: vec![0],
            vfree: Vec::new(),
            vunique: UniqueTable::new(UNIQUE_BITS),
            mnodes: vec![MNode { level: 0, succ: [Edge::ZERO; 4] }],
            mrc: vec![0],
            mfree: Vec::new(),
            munique: UniqueTable::new(UNIQUE_BITS),
            add_table: ComputeTable::new(COMPUTE_BITS),
            mv_table: ComputeTable::new(COMPUTE_BITS),
            mm_table: ComputeTable::new(COMPUTE_BITS),
            cache_enabled: true,
            gc_threshold: DEFAULT_GC_THRESHOLD,
            peak_live: 0,
            stats: DdStats::default(),
        };
        let zero = package.intern_weight(Complex::ZERO);
        let one = package.intern_weight(Complex::ONE);
        debug_assert_eq!(zero, W_ZERO);
        debug_assert_eq!(one, W_ONE);
        package
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Disables the operation caches (for the ablation benchmark measuring
    /// how much compute-table caching matters).
    pub fn set_cache_enabled(&mut self, enabled: bool) {
        self.cache_enabled = enabled;
        if !enabled {
            self.reset_compute_tables();
        }
    }

    /// Current health counters (hit/miss rates, collisions, GC activity).
    pub fn stats(&self) -> DdStats {
        self.stats
    }

    /// Zeroes the health counters (the tables themselves are untouched).
    pub fn reset_stats(&mut self) {
        self.stats = DdStats::default();
    }

    /// Resolves a weight id to its complex value.
    pub fn weight(&self, id: WeightId) -> Complex {
        self.weights[id as usize]
    }

    /// Interns a complex value, returning the canonical id of a value
    /// within `WEIGHT_TOLERANCE`.
    pub fn intern_weight(&mut self, value: Complex) -> WeightId {
        // Snap tiny components to exactly zero for stability.
        let re = if value.re.abs() < WEIGHT_TOLERANCE { 0.0 } else { value.re };
        let im = if value.im.abs() < WEIGHT_TOLERANCE { 0.0 } else { value.im };
        let value = Complex::new(re, im);
        let (kr, ki) = weight_key(value);
        // Check the home bucket first (the overwhelmingly common hit),
        // then the 8 neighbours (values straddling a bucket boundary must
        // still unify).
        const PROBE: [(i64, i64); 9] =
            [(0, 0), (-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)];
        let weights = &self.weights;
        for (dr, di) in PROBE {
            let hit = self.weight_table.find((kr + dr, ki + di), |id| {
                weights[id as usize].approx_eq_eps(value, WEIGHT_TOLERANCE)
            });
            if let Some(id) = hit {
                if (dr, di) != (0, 0) {
                    self.stats.weight_collisions += 1;
                }
                return id;
            }
        }
        let id = match self.wfree.pop() {
            Some(id) => {
                self.weights[id as usize] = value;
                id
            }
            None => {
                self.weights.push(value);
                self.wrc.push(0);
                (self.weights.len() - 1) as WeightId
            }
        };
        self.weight_table.insert((kr, ki), id);
        id
    }

    fn mul_weights(&mut self, a: WeightId, b: WeightId) -> WeightId {
        if a == W_ZERO || b == W_ZERO {
            return W_ZERO;
        }
        if a == W_ONE {
            return b;
        }
        if b == W_ONE {
            return a;
        }
        let product = self.weight(a) * self.weight(b);
        self.intern_weight(product)
    }

    fn add_weights(&mut self, a: WeightId, b: WeightId) -> WeightId {
        if a == W_ZERO {
            return b;
        }
        if b == W_ZERO {
            return a;
        }
        let sum = self.weight(a) + self.weight(b);
        self.intern_weight(sum)
    }

    // --- Arenas, reference counts, garbage collection ----------------------

    fn alloc_vnode(&mut self, node: VNode) -> NodeId {
        let id = match self.vfree.pop() {
            Some(id) => {
                self.vnodes[id as usize] = node;
                self.vrc[id as usize] = 0;
                id
            }
            None => {
                let id = self.vnodes.len() as NodeId;
                self.vnodes.push(node);
                self.vrc.push(0);
                id
            }
        };
        self.note_live();
        id
    }

    fn alloc_mnode(&mut self, node: MNode) -> NodeId {
        let id = match self.mfree.pop() {
            Some(id) => {
                self.mnodes[id as usize] = node;
                self.mrc[id as usize] = 0;
                id
            }
            None => {
                let id = self.mnodes.len() as NodeId;
                self.mnodes.push(node);
                self.mrc.push(0);
                id
            }
        };
        self.note_live();
        id
    }

    #[inline]
    fn note_live(&mut self) {
        let live = self.live_nodes();
        if live > self.peak_live {
            self.peak_live = live;
        }
    }

    /// Live vector + matrix nodes (allocated minus free-listed, excluding
    /// the terminal placeholders).
    pub fn live_nodes(&self) -> usize {
        (self.vnodes.len() - 1 - self.vfree.len()) + (self.mnodes.len() - 1 - self.mfree.len())
    }

    /// High-water mark of [`live_nodes`](Self::live_nodes) over the
    /// package's lifetime — the DD analogue of the `2^n` amplitude array.
    pub fn peak_live_nodes(&self) -> usize {
        self.peak_live
    }

    /// Live interned weights (allocated minus free-listed, counting the
    /// canonical 0 and 1).
    pub fn live_weights(&self) -> usize {
        self.weights.len() - self.wfree.len()
    }

    /// Protects a vector edge — its root node and its top weight — from
    /// garbage collection (saturating).
    pub fn inc_ref(&mut self, edge: Edge) {
        if edge.node != TERMINAL {
            inc_rc(&mut self.vrc[edge.node as usize]);
        }
        inc_rc(&mut self.wrc[edge.weight as usize]);
    }

    /// Releases one vector-edge protection.
    pub fn dec_ref(&mut self, edge: Edge) {
        if edge.node != TERMINAL {
            dec_rc(&mut self.vrc[edge.node as usize]);
        }
        dec_rc(&mut self.wrc[edge.weight as usize]);
    }

    /// Protects a matrix edge — its root node and its top weight — from
    /// garbage collection (saturating).
    pub fn inc_ref_matrix(&mut self, edge: Edge) {
        if edge.node != TERMINAL {
            inc_rc(&mut self.mrc[edge.node as usize]);
        }
        inc_rc(&mut self.wrc[edge.weight as usize]);
    }

    /// Releases one matrix-edge protection.
    pub fn dec_ref_matrix(&mut self, edge: Edge) {
        if edge.node != TERMINAL {
            dec_rc(&mut self.mrc[edge.node as usize]);
        }
        dec_rc(&mut self.wrc[edge.weight as usize]);
    }

    /// Overrides the live-node threshold that arms
    /// [`maybe_collect`](Self::maybe_collect).
    pub fn set_gc_threshold(&mut self, threshold: usize) {
        self.gc_threshold = threshold.max(1);
    }

    /// Runs the GC if the live-node count has reached the threshold;
    /// returns the number of reclaimed nodes (0 when it did not run).
    ///
    /// Call this only at safe points — when every edge that must survive
    /// is protected by a reference count. The package never collects
    /// implicitly.
    pub fn maybe_collect(&mut self) -> usize {
        if self.live_nodes() < self.gc_threshold {
            return 0;
        }
        let reclaimed = self.collect_garbage();
        // If most nodes survived, collecting again soon would only burn
        // time re-marking the same diagram: back off the threshold.
        if self.live_nodes() * 2 > self.gc_threshold {
            self.gc_threshold *= 2;
        }
        reclaimed
    }

    /// Mark-and-sweep collection: every node unreachable from a
    /// reference-counted root moves to the free list, then every weight
    /// that no protected edge and no surviving node names. The unique
    /// tables and the weight table are rebuilt from the survivors, and the
    /// compute tables are invalidated (their entries may name reclaimed
    /// nodes or weights). Weight ids are not compacted, so a protected
    /// edge's weight id stays valid. Returns the number of reclaimed nodes.
    pub fn collect_garbage(&mut self) -> usize {
        // -- Mark (vectors) --
        let mut vmark = vec![false; self.vnodes.len()];
        vmark[TERMINAL as usize] = true;
        let mut stack: Vec<NodeId> = Vec::new();
        for (id, &rc) in self.vrc.iter().enumerate() {
            if rc > 0 && self.vnodes[id].level != FREE_LEVEL {
                stack.push(id as NodeId);
            }
        }
        while let Some(id) = stack.pop() {
            if vmark[id as usize] {
                continue;
            }
            vmark[id as usize] = true;
            for edge in self.vnodes[id as usize].succ {
                if !vmark[edge.node as usize] {
                    stack.push(edge.node);
                }
            }
        }
        // -- Mark (matrices) --
        let mut mmark = vec![false; self.mnodes.len()];
        mmark[TERMINAL as usize] = true;
        for (id, &rc) in self.mrc.iter().enumerate() {
            if rc > 0 && self.mnodes[id].level != FREE_LEVEL {
                stack.push(id as NodeId);
            }
        }
        while let Some(id) = stack.pop() {
            if mmark[id as usize] {
                continue;
            }
            mmark[id as usize] = true;
            for edge in self.mnodes[id as usize].succ {
                if !mmark[edge.node as usize] {
                    stack.push(edge.node);
                }
            }
        }
        // -- Sweep --
        let mut reclaimed = 0usize;
        for (id, marked) in vmark.iter().enumerate().skip(1) {
            if !marked && self.vnodes[id].level != FREE_LEVEL {
                self.vnodes[id] = FREE_VNODE;
                self.vrc[id] = 0;
                self.vfree.push(id as NodeId);
                reclaimed += 1;
            }
        }
        for (id, marked) in mmark.iter().enumerate().skip(1) {
            if !marked && self.mnodes[id].level != FREE_LEVEL {
                self.mnodes[id] = FREE_MNODE;
                self.mrc[id] = 0;
                self.mfree.push(id as NodeId);
                reclaimed += 1;
            }
        }
        // -- Rebuild the unique tables from the survivors --
        self.vunique.clear();
        let (vunique, vnodes) = (&mut self.vunique, &self.vnodes);
        for (id, node) in vnodes.iter().enumerate().skip(1) {
            if node.level != FREE_LEVEL {
                vunique.insert(hash_vnode(node), id as NodeId, |slot| {
                    hash_vnode(&vnodes[slot as usize])
                });
            }
        }
        self.munique.clear();
        let (munique, mnodes) = (&mut self.munique, &self.mnodes);
        for (id, node) in mnodes.iter().enumerate().skip(1) {
            if node.level != FREE_LEVEL {
                munique.insert(hash_mnode(node), id as NodeId, |slot| {
                    hash_mnode(&mnodes[slot as usize])
                });
            }
        }
        self.collect_weights();
        // Cached results may point at reclaimed (or about-to-be-reused)
        // node and weight ids: drop everything.
        self.reset_compute_tables();
        self.stats.gc_runs += 1;
        self.stats.gc_reclaimed += reclaimed as u64;
        reclaimed
    }

    /// Weight half of [`collect_garbage`](Self::collect_garbage), run after
    /// the node sweep: the roots are the canonical 0 and 1, every weight
    /// with `wrc > 0`, and every successor weight of a surviving node.
    /// Every other slot goes to the free list (lowest ids are reused
    /// first), and the weight table is rebuilt from the survivors.
    fn collect_weights(&mut self) {
        let mut wmark: Vec<bool> = self.wrc.iter().map(|&rc| rc > 0).collect();
        wmark[W_ZERO as usize] = true;
        wmark[W_ONE as usize] = true;
        let vsucc =
            self.vnodes.iter().skip(1).filter(|n| n.level != FREE_LEVEL).flat_map(|n| n.succ);
        let msucc =
            self.mnodes.iter().skip(1).filter(|n| n.level != FREE_LEVEL).flat_map(|n| n.succ);
        for edge in vsucc.chain(msucc) {
            wmark[edge.weight as usize] = true;
        }
        let free_before = self.wfree.len();
        self.wfree.clear();
        self.weight_table.clear();
        for (id, &marked) in wmark.iter().enumerate().rev() {
            if marked {
                self.weight_table.insert(weight_key(self.weights[id]), id as WeightId);
            } else {
                // Poison the slot: a read through a dangling id shows up
                // as NaN instead of a plausible stale value.
                self.weights[id] = Complex::new(f64::NAN, f64::NAN);
                self.wfree.push(id as WeightId);
            }
        }
        self.stats.weights_reclaimed += (self.wfree.len() - free_before) as u64;
    }

    fn reset_compute_tables(&mut self) {
        self.add_table.reset();
        self.mv_table.reset();
        self.mm_table.reset();
        self.stats.gc_events += 1;
    }

    // --- Vector nodes ------------------------------------------------------

    /// Creates (or reuses) a normalized vector node at `level` with the two
    /// successor edges, returning the normalized edge into it.
    ///
    /// Normalization: the child weight of largest magnitude is factored out
    /// into the returned edge; a node whose children are both zero
    /// collapses to the zero edge.
    pub fn make_vnode(&mut self, level: u16, succ: [Edge; 2]) -> Edge {
        debug_assert!(level >= 1, "vector nodes live at level >= 1");
        if succ[0].is_zero() && succ[1].is_zero() {
            return Edge::ZERO;
        }
        let w0 = self.weight(succ[0].weight);
        let w1 = self.weight(succ[1].weight);
        let (norm_idx, norm) = if w0.norm_sqr() >= w1.norm_sqr() { (0, w0) } else { (1, w1) };
        let inv = norm.recip();
        let mut normalized = [Edge::ZERO; 2];
        for (i, edge) in succ.iter().enumerate() {
            if edge.is_zero() {
                normalized[i] = Edge::ZERO;
            } else if i == norm_idx {
                normalized[i] = Edge { node: edge.node, weight: W_ONE };
            } else {
                let w = self.weight(edge.weight) * inv;
                let wid = self.intern_weight(w);
                normalized[i] =
                    if wid == W_ZERO { Edge::ZERO } else { Edge { node: edge.node, weight: wid } };
            }
        }
        let node = VNode { level, succ: normalized };
        let hash = hash_vnode(&node);
        let vnodes = &self.vnodes;
        let id = match self.vunique.find(hash, |slot| vnodes[slot as usize] == node) {
            Some(id) => {
                self.stats.unique_hits += 1;
                id
            }
            None => {
                self.stats.unique_misses += 1;
                let id = self.alloc_vnode(node);
                let (vunique, vnodes) = (&mut self.vunique, &self.vnodes);
                vunique.insert(hash, id, |slot| hash_vnode(&vnodes[slot as usize]));
                id
            }
        };
        let top = self.intern_weight(norm);
        Edge { node: id, weight: top }
    }

    #[inline]
    fn vnode(&self, id: NodeId) -> &VNode {
        debug_assert_ne!(self.vnodes[id as usize].level, FREE_LEVEL, "use of reclaimed vnode");
        &self.vnodes[id as usize]
    }

    /// Level of a vector edge's node (0 for terminal).
    pub fn vector_level(&self, edge: Edge) -> u16 {
        self.vnode(edge.node).level
    }

    /// Level of a vector node by id (0 for terminal).
    pub fn vector_level_of(&self, node: NodeId) -> u16 {
        self.vnode(node).level
    }

    /// Raw successor edge of a vector node (parent weight *not* folded in).
    ///
    /// # Panics
    ///
    /// Panics if `node` is the terminal.
    pub fn vector_child(&self, node: NodeId, bit: usize) -> Edge {
        assert_ne!(node, TERMINAL, "terminal has no successors");
        self.vnode(node).succ[bit]
    }

    /// The successor of a vector edge along `bit`, with weights multiplied
    /// through.
    pub fn vector_successor(&mut self, edge: Edge, bit: usize) -> Edge {
        let child = self.vnode(edge.node).succ[bit];
        let weight = self.mul_weights(edge.weight, child.weight);
        if weight == W_ZERO {
            Edge::ZERO
        } else {
            Edge { node: child.node, weight }
        }
    }

    /// The basis state `|0…0⟩` as a vector DD.
    pub fn zero_state(&mut self) -> Edge {
        self.basis_state(0)
    }

    /// An arbitrary computational basis state as a vector DD.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 2^n`.
    pub fn basis_state(&mut self, index: usize) -> Edge {
        assert!(index < (1usize << self.num_qubits), "basis index out of range");
        let mut edge = Edge::ONE;
        for level in 1..=self.num_qubits as u16 {
            let bit = (index >> (level - 1)) & 1;
            let mut succ = [Edge::ZERO; 2];
            succ[bit] = edge;
            edge = self.make_vnode(level, succ);
        }
        edge
    }

    /// The amplitude `⟨index|ψ⟩` of a vector DD.
    pub fn amplitude(&self, edge: Edge, index: usize) -> Complex {
        let mut acc = self.weight(edge.weight);
        let mut node = edge.node;
        while node != TERMINAL {
            let vn = self.vnode(node);
            let bit = (index >> (vn.level - 1)) & 1;
            let child = vn.succ[bit];
            acc *= self.weight(child.weight);
            if acc.is_approx_zero() {
                return Complex::ZERO;
            }
            node = child.node;
        }
        acc
    }

    /// Materializes the full `2^n` amplitude vector (exponential; for tests
    /// and small benchmarks). Iterative: one explicit stack, no recursion.
    pub fn to_statevector(&self, edge: Edge) -> Vec<Complex> {
        let dim = 1usize << self.num_qubits;
        let mut out = vec![Complex::ZERO; dim];
        let top = self.weight(edge.weight);
        if top.is_approx_zero() {
            return out;
        }
        // (node, basis-index prefix, accumulated weight). State DDs built
        // through make_vnode never skip levels, so a terminal entry always
        // sits at level 0 with a complete prefix.
        let mut stack: Vec<(NodeId, usize, Complex)> = Vec::with_capacity(64);
        stack.push((edge.node, 0, top));
        while let Some((node, prefix, acc)) = stack.pop() {
            if node == TERMINAL {
                out[prefix] = acc;
                continue;
            }
            let vn = self.vnode(node);
            for bit in 0..2 {
                let child = vn.succ[bit];
                if child.is_zero() {
                    continue;
                }
                let next = acc * self.weight(child.weight);
                if next.is_approx_zero() {
                    continue;
                }
                stack.push((child.node, prefix | (bit << (vn.level - 1)), next));
            }
        }
        out
    }

    /// Number of distinct nodes reachable from a vector edge (excluding the
    /// terminal) — the size metric of the Fig. 3 comparison.
    pub fn vector_nodes(&self, edge: Edge) -> usize {
        let mut seen = vec![false; self.vnodes.len()];
        seen[TERMINAL as usize] = true;
        let mut count = 0usize;
        let mut stack = vec![edge.node];
        while let Some(node) = stack.pop() {
            if seen[node as usize] {
                continue;
            }
            seen[node as usize] = true;
            count += 1;
            for child in self.vnode(node).succ {
                stack.push(child.node);
            }
        }
        count
    }

    /// Squared norm `⟨ψ|ψ⟩` of a vector DD.
    pub fn vector_norm_sqr(&self, edge: Edge) -> f64 {
        let mut cache = vec![f64::NAN; self.vnodes.len()];
        let body = self.node_norms_into(edge.node, &mut cache);
        self.weight(edge.weight).norm_sqr() * body
    }

    /// Fills `cache[node] = ‖subtree(node)‖²` for every node reachable from
    /// `root` (iterative post-order; untouched slots stay NaN) and returns
    /// `cache[root]`. The cache must be sized to the vnode arena. Shared
    /// with the sampler, which reuses one cache across all shots.
    pub(crate) fn node_norms_into(&self, root: NodeId, cache: &mut [f64]) -> f64 {
        debug_assert_eq!(cache.len(), self.vnodes.len());
        cache[TERMINAL as usize] = 1.0;
        let mut stack: Vec<NodeId> = vec![root];
        while let Some(&node) = stack.last() {
            if !cache[node as usize].is_nan() {
                stack.pop();
                continue;
            }
            let vn = self.vnode(node);
            let mut ready = true;
            for child in vn.succ {
                if !child.is_zero() && cache[child.node as usize].is_nan() {
                    stack.push(child.node);
                    ready = false;
                }
            }
            if ready {
                let mut total = 0.0;
                for child in vn.succ {
                    if !child.is_zero() {
                        total += self.weight(child.weight).norm_sqr() * cache[child.node as usize];
                    }
                }
                cache[node as usize] = total;
                stack.pop();
            }
        }
        cache[root as usize]
    }

    /// Size of the vector-node arena (for sizing per-node scratch buffers).
    pub(crate) fn vnode_arena_len(&self) -> usize {
        self.vnodes.len()
    }

    // --- Vector addition ----------------------------------------------------

    /// Adds two vector DDs.
    pub fn add_vectors(&mut self, a: Edge, b: Edge) -> Edge {
        if a.is_zero() {
            return b;
        }
        if b.is_zero() {
            return a;
        }
        let (a, b) = if (a.node, a.weight) <= (b.node, b.weight) { (a, b) } else { (b, a) };
        if self.cache_enabled {
            if let Some(hit) = self.add_table.lookup(a, b) {
                self.stats.compute_hits += 1;
                return hit;
            }
        }
        self.stats.compute_misses += 1;
        let result = if a.node == TERMINAL && b.node == TERMINAL {
            let w = self.add_weights(a.weight, b.weight);
            if w == W_ZERO {
                Edge::ZERO
            } else {
                Edge { node: TERMINAL, weight: w }
            }
        } else {
            let level = self.vector_level(a).max(self.vector_level(b));
            let mut succ = [Edge::ZERO; 2];
            for (bit, slot) in succ.iter_mut().enumerate() {
                let ac = self.descend_vector(a, level, bit);
                let bc = self.descend_vector(b, level, bit);
                *slot = self.add_vectors(ac, bc);
            }
            self.make_vnode(level, succ)
        };
        if self.cache_enabled {
            self.add_table.store(a, b, result);
        }
        result
    }

    /// Child of `edge` along `bit` if its node is at `level`, otherwise the
    /// edge itself (implicit don't-care expansion for skipped levels).
    fn descend_vector(&mut self, edge: Edge, level: u16, bit: usize) -> Edge {
        if edge.node != TERMINAL && self.vector_level(edge) == level {
            self.vector_successor(edge, bit)
        } else {
            // Node skipped at this level: for state DDs built by this
            // package levels are never skipped, but addition interim
            // results can be sub-normalized; treat as same value on both
            // branches (don't-care) — only correct for terminal edges,
            // which is the only skip case reachable here.
            edge
        }
    }

    // --- Matrix nodes ---------------------------------------------------------

    /// Creates (or reuses) a normalized matrix node.
    pub fn make_mnode(&mut self, level: u16, succ: [Edge; 4]) -> Edge {
        debug_assert!(level >= 1, "matrix nodes live at level >= 1");
        if succ.iter().all(|e| e.is_zero()) {
            return Edge::ZERO;
        }
        // Factor out the max-magnitude child weight.
        let mut norm_idx = 0;
        let mut best = -1.0f64;
        for (i, edge) in succ.iter().enumerate() {
            let mag = self.weight(edge.weight).norm_sqr();
            if mag > best {
                best = mag;
                norm_idx = i;
            }
        }
        let norm = self.weight(succ[norm_idx].weight);
        let inv = norm.recip();
        let mut normalized = [Edge::ZERO; 4];
        for (i, edge) in succ.iter().enumerate() {
            if edge.is_zero() {
                normalized[i] = Edge::ZERO;
            } else if i == norm_idx {
                normalized[i] = Edge { node: edge.node, weight: W_ONE };
            } else {
                let w = self.weight(edge.weight) * inv;
                let wid = self.intern_weight(w);
                normalized[i] =
                    if wid == W_ZERO { Edge::ZERO } else { Edge { node: edge.node, weight: wid } };
            }
        }
        let node = MNode { level, succ: normalized };
        let hash = hash_mnode(&node);
        let mnodes = &self.mnodes;
        let id = match self.munique.find(hash, |slot| mnodes[slot as usize] == node) {
            Some(id) => {
                self.stats.unique_hits += 1;
                id
            }
            None => {
                self.stats.unique_misses += 1;
                let id = self.alloc_mnode(node);
                let (munique, mnodes) = (&mut self.munique, &self.mnodes);
                munique.insert(hash, id, |slot| hash_mnode(&mnodes[slot as usize]));
                id
            }
        };
        let top = self.intern_weight(norm);
        Edge { node: id, weight: top }
    }

    #[inline]
    fn mnode(&self, id: NodeId) -> &MNode {
        debug_assert_ne!(self.mnodes[id as usize].level, FREE_LEVEL, "use of reclaimed mnode");
        &self.mnodes[id as usize]
    }

    /// Level of a matrix edge's node (0 for terminal).
    pub fn matrix_level(&self, edge: Edge) -> u16 {
        self.mnode(edge.node).level
    }

    /// Number of distinct matrix nodes reachable from an edge.
    pub fn matrix_nodes(&self, edge: Edge) -> usize {
        let mut seen = vec![false; self.mnodes.len()];
        seen[TERMINAL as usize] = true;
        let mut count = 0usize;
        let mut stack = vec![edge.node];
        while let Some(node) = stack.pop() {
            if seen[node as usize] {
                continue;
            }
            seen[node as usize] = true;
            count += 1;
            for child in self.mnode(node).succ {
                stack.push(child.node);
            }
        }
        count
    }

    /// The identity matrix DD over all qubits.
    pub fn identity(&mut self) -> Edge {
        let mut edge = Edge::ONE;
        for level in 1..=self.num_qubits as u16 {
            edge = self.make_mnode(level, [edge, Edge::ZERO, Edge::ZERO, edge]);
        }
        edge
    }

    /// Builds the matrix DD of a `k`-qubit gate applied to `qubits`
    /// (little-endian operand convention matching
    /// [`qukit_terra::gate::Gate::matrix`]).
    ///
    /// # Panics
    ///
    /// Panics if operand count and matrix dimension disagree or operands
    /// repeat / exceed the register.
    pub fn gate_matrix(&mut self, matrix: &qukit_terra::matrix::Matrix, qubits: &[usize]) -> Edge {
        let k = qubits.len();
        assert_eq!(matrix.rows(), 1 << k, "matrix dimension mismatch");
        for &q in qubits {
            assert!(q < self.num_qubits, "operand qubit {q} out of range");
        }
        let mut memo: HashMap<(u16, usize, usize), Edge> = HashMap::new();
        self.build_gate(matrix, qubits, self.num_qubits as u16, 0, 0, &mut memo)
    }

    #[allow(clippy::too_many_arguments)]
    fn build_gate(
        &mut self,
        matrix: &qukit_terra::matrix::Matrix,
        qubits: &[usize],
        level: u16,
        row_acc: usize,
        col_acc: usize,
        memo: &mut HashMap<(u16, usize, usize), Edge>,
    ) -> Edge {
        if level == 0 {
            let value = matrix[(row_acc, col_acc)];
            let w = self.intern_weight(value);
            return if w == W_ZERO { Edge::ZERO } else { Edge { node: TERMINAL, weight: w } };
        }
        if let Some(&hit) = memo.get(&(level, row_acc, col_acc)) {
            return hit;
        }
        let q = (level - 1) as usize;
        let result = if let Some(pos) = qubits.iter().position(|&x| x == q) {
            let mut succ = [Edge::ZERO; 4];
            for r in 0..2 {
                for c in 0..2 {
                    let child = self.build_gate(
                        matrix,
                        qubits,
                        level - 1,
                        row_acc | (r << pos),
                        col_acc | (c << pos),
                        memo,
                    );
                    succ[r * 2 + c] = child;
                }
            }
            self.make_mnode(level, succ)
        } else {
            let below = self.build_gate(matrix, qubits, level - 1, row_acc, col_acc, memo);
            self.make_mnode(level, [below, Edge::ZERO, Edge::ZERO, below])
        };
        memo.insert((level, row_acc, col_acc), result);
        result
    }

    // --- Matrix-vector and matrix-matrix multiplication -------------------------

    /// Applies a matrix DD to a vector DD: `|ψ'⟩ = M|ψ⟩`.
    ///
    /// This is the core simulation step — "simulating a quantum circuit
    /// conceptually boils down to a sequence of matrix-vector
    /// multiplications" (paper, Section V-A), except both operands stay in
    /// their compressed DD form throughout.
    pub fn multiply_mv(&mut self, m: Edge, v: Edge) -> Edge {
        if m.is_zero() || v.is_zero() {
            return Edge::ZERO;
        }
        if m.node == TERMINAL && v.node == TERMINAL {
            let w = self.mul_weights(m.weight, v.weight);
            return if w == W_ZERO { Edge::ZERO } else { Edge { node: TERMINAL, weight: w } };
        }
        // Factor the top weights out so cache entries are weight-normalized.
        let (m_body, v_body) =
            (Edge { node: m.node, weight: W_ONE }, Edge { node: v.node, weight: W_ONE });
        let outer = self.mul_weights(m.weight, v.weight);
        if outer == W_ZERO {
            return Edge::ZERO;
        }
        let cached = if self.cache_enabled { self.mv_table.lookup(m_body, v_body) } else { None };
        let body_result = if let Some(hit) = cached {
            self.stats.compute_hits += 1;
            hit
        } else {
            self.stats.compute_misses += 1;
            let level = self.matrix_level(m).max(self.vector_level(v));
            let mut succ = [Edge::ZERO; 2];
            for (r, slot) in succ.iter_mut().enumerate() {
                let mut acc = Edge::ZERO;
                for c in 0..2 {
                    let m_child = self.descend_matrix(m_body, level, r, c);
                    let v_child = self.descend_vector_strict(v_body, level, c);
                    let prod = self.multiply_mv(m_child, v_child);
                    acc = self.add_vectors(acc, prod);
                }
                *slot = acc;
            }
            let result = self.make_vnode(level, succ);
            if self.cache_enabled {
                self.mv_table.store(m_body, v_body, result);
            }
            result
        };
        let weight = self.mul_weights(outer, body_result.weight);
        if weight == W_ZERO {
            Edge::ZERO
        } else {
            Edge { node: body_result.node, weight }
        }
    }

    /// Multiplies two matrix DDs: `A·B`.
    pub fn multiply_mm(&mut self, a: Edge, b: Edge) -> Edge {
        if a.is_zero() || b.is_zero() {
            return Edge::ZERO;
        }
        if a.node == TERMINAL && b.node == TERMINAL {
            let w = self.mul_weights(a.weight, b.weight);
            return if w == W_ZERO { Edge::ZERO } else { Edge { node: TERMINAL, weight: w } };
        }
        let (a_body, b_body) =
            (Edge { node: a.node, weight: W_ONE }, Edge { node: b.node, weight: W_ONE });
        let outer = self.mul_weights(a.weight, b.weight);
        if outer == W_ZERO {
            return Edge::ZERO;
        }
        let cached = if self.cache_enabled { self.mm_table.lookup(a_body, b_body) } else { None };
        let body_result = if let Some(hit) = cached {
            self.stats.compute_hits += 1;
            hit
        } else {
            self.stats.compute_misses += 1;
            let level = self.matrix_level(a).max(self.matrix_level(b));
            let mut succ = [Edge::ZERO; 4];
            for r in 0..2 {
                for c in 0..2 {
                    let mut acc = Edge::ZERO;
                    for k in 0..2 {
                        let a_child = self.descend_matrix(a_body, level, r, k);
                        let b_child = self.descend_matrix(b_body, level, k, c);
                        let prod = self.multiply_mm(a_child, b_child);
                        acc = self.add_matrices(acc, prod);
                    }
                    succ[r * 2 + c] = acc;
                }
            }
            let result = self.make_mnode(level, succ);
            if self.cache_enabled {
                self.mm_table.store(a_body, b_body, result);
            }
            result
        };
        let weight = self.mul_weights(outer, body_result.weight);
        if weight == W_ZERO {
            Edge::ZERO
        } else {
            Edge { node: body_result.node, weight }
        }
    }

    /// Adds two matrix DDs.
    pub fn add_matrices(&mut self, a: Edge, b: Edge) -> Edge {
        if a.is_zero() {
            return b;
        }
        if b.is_zero() {
            return a;
        }
        if a.node == TERMINAL && b.node == TERMINAL {
            let w = self.add_weights(a.weight, b.weight);
            return if w == W_ZERO { Edge::ZERO } else { Edge { node: TERMINAL, weight: w } };
        }
        let level = self.matrix_level(a).max(self.matrix_level(b));
        let mut succ = [Edge::ZERO; 4];
        for r in 0..2 {
            for c in 0..2 {
                let ac = self.descend_matrix(a, level, r, c);
                let bc = self.descend_matrix(b, level, r, c);
                succ[r * 2 + c] = self.add_matrices(ac, bc);
            }
        }
        self.make_mnode(level, succ)
    }

    fn descend_matrix(&mut self, edge: Edge, level: u16, r: usize, c: usize) -> Edge {
        if edge.node != TERMINAL && self.matrix_level(edge) == level {
            let child = self.mnode(edge.node).succ[r * 2 + c];
            let weight = self.mul_weights(edge.weight, child.weight);
            if weight == W_ZERO {
                Edge::ZERO
            } else {
                Edge { node: child.node, weight }
            }
        } else if r == c {
            // Skipped level acts as identity.
            edge
        } else {
            Edge::ZERO
        }
    }

    fn descend_vector_strict(&mut self, edge: Edge, level: u16, bit: usize) -> Edge {
        if edge.node != TERMINAL && self.vector_level(edge) == level {
            self.vector_successor(edge, bit)
        } else {
            // For fully-expanded state DDs this cannot happen except at the
            // terminal, where the value is shared by both branches.
            edge
        }
    }

    /// Materializes a matrix DD as a dense matrix (exponential; tests
    /// and the Fig. 3 reproduction only).
    pub fn to_matrix(&self, edge: Edge) -> qukit_terra::matrix::Matrix {
        let dim = 1usize << self.num_qubits;
        let mut out = qukit_terra::matrix::Matrix::zeros(dim, dim);
        self.fill_matrix(edge, self.num_qubits as u16, 0, 0, self.weight(edge.weight), &mut out);
        out
    }

    fn fill_matrix(
        &self,
        edge: Edge,
        level: u16,
        row: usize,
        col: usize,
        acc: Complex,
        out: &mut qukit_terra::matrix::Matrix,
    ) {
        if acc.is_approx_zero() {
            return;
        }
        if level == 0 {
            out[(row, col)] = acc;
            return;
        }
        if edge.node == TERMINAL || self.matrix_level(edge) != level {
            // Skipped level: identity expansion.
            for b in 0..2 {
                self.fill_matrix(
                    edge,
                    level - 1,
                    row | (b << (level - 1)),
                    col | (b << (level - 1)),
                    acc,
                    out,
                );
            }
            return;
        }
        let mn = self.mnode(edge.node);
        for r in 0..2 {
            for c in 0..2 {
                let child = mn.succ[r * 2 + c];
                if child.is_zero() {
                    continue;
                }
                self.fill_matrix(
                    child,
                    level - 1,
                    row | (r << (level - 1)),
                    col | (c << (level - 1)),
                    acc * self.weight(child.weight),
                    out,
                );
            }
        }
    }

    /// Inner product `⟨a|b⟩` of two vector DDs, computed on the compressed
    /// representation with memoization (never materializing amplitudes).
    pub fn inner_product(&mut self, a: Edge, b: Edge) -> Complex {
        let mut cache: HashMap<(NodeId, NodeId), Complex> = HashMap::new();
        let top = self.weight(a.weight).conj() * self.weight(b.weight);
        if top.is_approx_zero() {
            return Complex::ZERO;
        }
        top * self.inner_product_body(a.node, b.node, &mut cache)
    }

    fn inner_product_body(
        &mut self,
        a: NodeId,
        b: NodeId,
        cache: &mut HashMap<(NodeId, NodeId), Complex>,
    ) -> Complex {
        if a == TERMINAL && b == TERMINAL {
            return Complex::ONE;
        }
        if let Some(&hit) = cache.get(&(a, b)) {
            return hit;
        }
        // State DDs built by this package never skip levels, so the two
        // nodes are at the same level here.
        let mut acc = Complex::ZERO;
        for bit in 0..2 {
            let ca = self.vector_child(a, bit);
            let cb = self.vector_child(b, bit);
            if ca.is_zero() || cb.is_zero() {
                continue;
            }
            let w = self.weight(ca.weight).conj() * self.weight(cb.weight);
            if w.is_approx_zero() {
                continue;
            }
            acc += w * self.inner_product_body(ca.node, cb.node, cache);
        }
        cache.insert((a, b), acc);
        acc
    }

    /// Fidelity `|⟨a|b⟩|²` between two vector DDs.
    pub fn fidelity(&mut self, a: Edge, b: Edge) -> f64 {
        self.inner_product(a, b).norm_sqr()
    }

    /// Live nodes (vector + matrix) — a memory telemetry metric. Alias of
    /// [`live_nodes`](Self::live_nodes), kept for the original telemetry
    /// name.
    pub fn allocated_nodes(&self) -> usize {
        self.live_nodes()
    }

    /// Clears the operation caches (unique tables are kept).
    pub fn clear_caches(&mut self) {
        self.reset_compute_tables();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qukit_terra::complex::c64;
    use qukit_terra::gate::Gate;

    #[test]
    fn weight_interning_is_canonical() {
        let mut dd = DdPackage::new(1);
        let a = dd.intern_weight(c64(0.5, -0.25));
        let b = dd.intern_weight(c64(0.5 + 1e-13, -0.25 - 1e-13));
        assert_eq!(a, b, "nearby weights must unify");
        let c = dd.intern_weight(c64(0.5001, -0.25));
        assert_ne!(a, c);
        assert_eq!(dd.intern_weight(Complex::ZERO), W_ZERO);
        assert_eq!(dd.intern_weight(Complex::ONE), W_ONE);
    }

    #[test]
    fn boundary_straddling_weights_unify_to_one_canonical_id() {
        // Two values on opposite sides of a tolerance-bucket boundary:
        // rounding puts them in adjacent buckets, but they are within
        // WEIGHT_TOLERANCE of each other, so the 9-bucket probe must
        // unify them — and count the unification as a collision.
        let mut dd = DdPackage::new(1);
        let base = 0.5;
        let v1 = c64(base + 0.44 * WEIGHT_TOLERANCE, base);
        let v2 = c64(base + 0.56 * WEIGHT_TOLERANCE, base);
        let k1 = (v1.re / WEIGHT_TOLERANCE).round() as i64;
        let k2 = (v2.re / WEIGHT_TOLERANCE).round() as i64;
        assert_ne!(k1, k2, "test values must straddle a bucket boundary");
        let before = dd.stats().weight_collisions;
        let a = dd.intern_weight(v1);
        let b = dd.intern_weight(v2);
        assert_eq!(a, b, "straddling values must intern to one canonical id");
        assert_eq!(
            dd.stats().weight_collisions,
            before + 1,
            "the neighbour-bucket unification must be counted"
        );
        // The imaginary axis straddles too.
        let c = dd.intern_weight(c64(0.25, base + 0.44 * WEIGHT_TOLERANCE));
        let d = dd.intern_weight(c64(0.25, base + 0.56 * WEIGHT_TOLERANCE));
        assert_eq!(c, d);
    }

    #[test]
    fn zero_state_amplitudes() {
        let mut dd = DdPackage::new(3);
        let psi = dd.zero_state();
        assert!(dd.amplitude(psi, 0).is_approx_one());
        for idx in 1..8 {
            assert!(dd.amplitude(psi, idx).is_approx_zero());
        }
        assert!((dd.vector_norm_sqr(psi) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn basis_states_are_canonical_chains() {
        let mut dd = DdPackage::new(4);
        let a = dd.basis_state(0b1010);
        let b = dd.basis_state(0b1010);
        assert_eq!(a, b, "hash consing must return identical edges");
        assert!(dd.amplitude(a, 0b1010).is_approx_one());
        assert_eq!(dd.vector_nodes(a), 4);
    }

    #[test]
    fn gate_matrix_reproduces_dense() {
        let mut dd = DdPackage::new(3);
        for (gate, qubits) in [
            (Gate::H, vec![0]),
            (Gate::H, vec![2]),
            (Gate::T, vec![1]),
            (Gate::CX, vec![0, 2]),
            (Gate::CX, vec![2, 0]),
            (Gate::Swap, vec![0, 1]),
        ] {
            let edge = dd.gate_matrix(&gate.matrix(), &qubits);
            let dense = dd.to_matrix(edge);
            // Reference: embed with the reference simulator.
            let mut circ = qukit_terra::circuit::QuantumCircuit::new(3);
            circ.append(gate, &qubits).unwrap();
            let expected = qukit_terra::reference::unitary(&circ).unwrap();
            assert!(dense.approx_eq_eps(&expected, 1e-9), "{gate:?} on {qubits:?}");
        }
    }

    #[test]
    fn identity_dd_has_linear_size() {
        let mut dd = DdPackage::new(8);
        let id = dd.identity();
        assert_eq!(dd.matrix_nodes(id), 8);
    }

    #[test]
    fn mv_multiplication_matches_dense() {
        let mut dd = DdPackage::new(3);
        let mut psi = dd.zero_state();
        let mut reference = vec![Complex::ZERO; 8];
        reference[0] = Complex::ONE;
        for (gate, qubits) in [
            (Gate::H, vec![0usize]),
            (Gate::CX, vec![0, 1]),
            (Gate::T, vec![1]),
            (Gate::CX, vec![1, 2]),
            (Gate::H, vec![2]),
        ] {
            let m = dd.gate_matrix(&gate.matrix(), &qubits);
            psi = dd.multiply_mv(m, psi);
            qukit_terra::reference::apply_gate(&mut reference, &gate.matrix(), &qubits);
        }
        let result = dd.to_statevector(psi);
        for (a, b) in result.iter().zip(&reference) {
            assert!(a.approx_eq_eps(*b, 1e-9));
        }
        assert!((dd.vector_norm_sqr(psi) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ghz_state_dd_is_linear_in_qubits() {
        // The flagship compactness result: GHZ needs 2^n amplitudes densely
        // but only 2n-1 DD nodes (a top node plus the all-zero and all-one
        // chains).
        let n = 12;
        let mut dd = DdPackage::new(n);
        let mut psi = dd.zero_state();
        let h = dd.gate_matrix(&Gate::H.matrix(), &[0]);
        psi = dd.multiply_mv(h, psi);
        for q in 1..n {
            let cx = dd.gate_matrix(&Gate::CX.matrix(), &[q - 1, q]);
            psi = dd.multiply_mv(cx, psi);
        }
        assert_eq!(dd.vector_nodes(psi), 2 * n - 1, "GHZ must stay linear");
        let amp0 = dd.amplitude(psi, 0);
        let amp_all = dd.amplitude(psi, (1 << n) - 1);
        assert!((amp0.norm_sqr() - 0.5).abs() < 1e-9);
        assert!((amp_all.norm_sqr() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn addition_is_commutative_and_linear() {
        let mut dd = DdPackage::new(2);
        let a = dd.basis_state(0);
        let b = dd.basis_state(3);
        let ab = dd.add_vectors(a, b);
        let ba = dd.add_vectors(b, a);
        assert_eq!(ab, ba);
        assert!((dd.vector_norm_sqr(ab) - 2.0).abs() < 1e-12);
        assert!(dd.amplitude(ab, 0).is_approx_one());
        assert!(dd.amplitude(ab, 3).is_approx_one());
    }

    #[test]
    fn mm_multiplication_matches_dense() {
        let mut dd = DdPackage::new(2);
        let h0 = dd.gate_matrix(&Gate::H.matrix(), &[0]);
        let cx = dd.gate_matrix(&Gate::CX.matrix(), &[0, 1]);
        let product = dd.multiply_mm(cx, h0); // CX · H(q0)
        let dense = dd.to_matrix(product);
        let mut circ = qukit_terra::circuit::QuantumCircuit::new(2);
        circ.h(0).unwrap();
        circ.cx(0, 1).unwrap();
        let expected = qukit_terra::reference::unitary(&circ).unwrap();
        assert!(dense.approx_eq_eps(&expected, 1e-9));
    }

    #[test]
    fn canonicity_hh_restores_original_edge() {
        let mut dd = DdPackage::new(4);
        let psi = dd.zero_state();
        let h = dd.gate_matrix(&Gate::H.matrix(), &[2]);
        let once = dd.multiply_mv(h, psi);
        let twice = dd.multiply_mv(h, once);
        assert_eq!(twice, psi, "H·H|ψ⟩ must be structurally identical to |ψ⟩");
    }

    #[test]
    fn cache_toggle_gives_same_results() {
        let run = |cache: bool| -> Vec<Complex> {
            let mut dd = DdPackage::new(4);
            dd.set_cache_enabled(cache);
            let mut psi = dd.zero_state();
            for q in 0..4 {
                let h = dd.gate_matrix(&Gate::H.matrix(), &[q]);
                psi = dd.multiply_mv(h, psi);
            }
            for q in 0..3 {
                let cx = dd.gate_matrix(&Gate::CX.matrix(), &[q, q + 1]);
                psi = dd.multiply_mv(cx, psi);
            }
            dd.to_statevector(psi)
        };
        let with = run(true);
        let without = run(false);
        for (a, b) in with.iter().zip(&without) {
            assert!(a.approx_eq_eps(*b, 1e-9));
        }
    }

    #[test]
    fn inner_product_matches_dense() {
        let mut dd = DdPackage::new(3);
        // |psi> = GHZ, |phi> = uniform superposition.
        let mut psi = dd.zero_state();
        let h0 = dd.gate_matrix(&Gate::H.matrix(), &[0]);
        psi = dd.multiply_mv(h0, psi);
        for q in 1..3 {
            let cx = dd.gate_matrix(&Gate::CX.matrix(), &[q - 1, q]);
            psi = dd.multiply_mv(cx, psi);
        }
        let mut phi = dd.zero_state();
        for q in 0..3 {
            let h = dd.gate_matrix(&Gate::H.matrix(), &[q]);
            phi = dd.multiply_mv(h, phi);
        }
        let dense_psi = dd.to_statevector(psi);
        let dense_phi = dd.to_statevector(phi);
        let expected = qukit_terra::matrix::inner_product(&dense_psi, &dense_phi);
        let actual = dd.inner_product(psi, phi);
        assert!(actual.approx_eq_eps(expected, 1e-10), "{actual} vs {expected}");
        // <GHZ|uniform> = 2/sqrt(2 * 8) = 0.5.
        assert!((actual.re - 0.5).abs() < 1e-10);
    }

    #[test]
    fn inner_product_self_is_norm() {
        let mut dd = DdPackage::new(4);
        let mut psi = dd.zero_state();
        for (g, q) in [(Gate::H, 0usize), (Gate::T, 0), (Gate::H, 2)] {
            let m = dd.gate_matrix(&g.matrix(), &[q]);
            psi = dd.multiply_mv(m, psi);
        }
        let ip = dd.inner_product(psi, psi);
        assert!((ip.re - 1.0).abs() < 1e-10);
        assert!(ip.im.abs() < 1e-10);
        assert!((dd.fidelity(psi, psi) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn orthogonal_states_have_zero_fidelity() {
        let mut dd = DdPackage::new(2);
        let a = dd.basis_state(0b01);
        let b = dd.basis_state(0b10);
        assert!(dd.inner_product(a, b).is_approx_zero());
        assert_eq!(dd.fidelity(a, b), 0.0);
    }

    #[test]
    fn allocated_nodes_grows_and_reports() {
        let mut dd = DdPackage::new(3);
        let before = dd.allocated_nodes();
        let _ = dd.zero_state();
        assert!(dd.allocated_nodes() > before);
        dd.clear_caches();
    }

    #[test]
    fn gc_reclaims_unreferenced_nodes_and_keeps_protected_roots() {
        let n = 6;
        let mut dd = DdPackage::new(n);
        // A protected GHZ state...
        let mut ghz = dd.zero_state();
        let h = dd.gate_matrix(&Gate::H.matrix(), &[0]);
        ghz = dd.multiply_mv(h, ghz);
        for q in 1..n {
            let cx = dd.gate_matrix(&Gate::CX.matrix(), &[q - 1, q]);
            ghz = dd.multiply_mv(cx, ghz);
        }
        dd.inc_ref(ghz);
        let expected = dd.to_statevector(ghz);
        // ...plus a pile of garbage: unprotected basis states and gate DDs.
        for i in 0..(1 << n) {
            let _ = dd.basis_state(i);
        }
        let live_before = dd.live_nodes();
        let reclaimed = dd.collect_garbage();
        assert!(reclaimed > 0, "garbage must be reclaimed");
        assert!(dd.live_nodes() < live_before);
        assert_eq!(dd.stats().gc_runs, 1);
        assert_eq!(dd.stats().gc_reclaimed, reclaimed as u64);
        // The protected state is untouched, bit for bit.
        let after = dd.to_statevector(ghz);
        for (a, b) in after.iter().zip(&expected) {
            assert_eq!(a, b, "protected roots must survive GC exactly");
        }
        assert_eq!(dd.vector_nodes(ghz), 2 * n - 1);
        dd.dec_ref(ghz);
    }

    #[test]
    fn gc_free_list_slots_are_reused() {
        let mut dd = DdPackage::new(4);
        for i in 0..16 {
            let _ = dd.basis_state(i);
        }
        let arena_before = dd.vnode_arena_len();
        let reclaimed = dd.collect_garbage();
        assert!(reclaimed > 0);
        // Rebuilding states after the sweep must reuse freed slots instead
        // of growing the arena.
        for i in 0..16 {
            let _ = dd.basis_state(i);
        }
        assert_eq!(dd.vnode_arena_len(), arena_before, "freed slots must be recycled");
    }

    #[test]
    fn gc_after_sweep_rebuilt_states_stay_correct() {
        let mut dd = DdPackage::new(3);
        let a = dd.basis_state(5);
        let amp_before = dd.amplitude(a, 5);
        dd.collect_garbage(); // `a` was unprotected: reclaimed
        let b = dd.basis_state(5);
        assert!(dd.amplitude(b, 5).approx_eq_eps(amp_before, 1e-12));
        let c = dd.basis_state(5);
        assert_eq!(b, c, "hash consing is canonical again after the rebuild");
    }

    #[test]
    fn maybe_collect_honors_threshold() {
        let mut dd = DdPackage::new(4);
        dd.set_gc_threshold(usize::MAX);
        for i in 0..16 {
            let _ = dd.basis_state(i);
        }
        assert_eq!(dd.maybe_collect(), 0, "below threshold: no collection");
        dd.set_gc_threshold(1);
        assert!(dd.maybe_collect() > 0, "above threshold: collects");
        assert!(dd.stats().gc_runs >= 1);
    }

    /// A state with a non-trivial top weight: `U(θ, φ, λ)` on every qubit.
    fn rotated_state(dd: &mut DdPackage, theta: f64) -> Edge {
        let mut psi = dd.zero_state();
        for q in 0..dd.num_qubits() {
            let u = dd.gate_matrix(&Gate::U(theta, 0.3 * theta, -0.7).matrix(), &[q]);
            psi = dd.multiply_mv(u, psi);
        }
        psi
    }

    #[test]
    fn gc_keeps_the_weight_of_a_protected_terminal_edge() {
        let mut dd = DdPackage::new(2);
        let value = c64(0.3, -0.7);
        let w = dd.intern_weight(value);
        let edge = Edge { node: TERMINAL, weight: w };
        dd.inc_ref(edge);
        // Unprotected weights around it are garbage.
        let _ = rotated_state(&mut dd, 0.9);
        let live_before = dd.live_weights();
        dd.collect_garbage();
        assert!(dd.live_weights() < live_before, "dead weights must be reclaimed");
        assert!(dd.stats().weights_reclaimed > 0);
        assert_eq!(dd.weight(w), value, "a protected terminal edge keeps its weight");
        assert_eq!(dd.intern_weight(value), w, "the survivor is still the canonical id");
        dd.dec_ref(edge);
        dd.collect_garbage();
        assert_eq!(dd.live_weights(), 2, "only the canonical 0 and 1 remain");
    }

    #[test]
    fn gc_keeps_the_top_weight_of_protected_roots() {
        let mut dd = DdPackage::new(3);
        let psi = rotated_state(&mut dd, 1.1);
        assert_ne!(psi.weight, W_ONE, "the test needs a non-trivial top weight");
        dd.inc_ref(psi);
        let u = dd.gate_matrix(&Gate::U(0.4, 1.2, -0.5).matrix(), &[1]);
        assert_ne!(u.weight, W_ONE);
        dd.inc_ref_matrix(u);
        let (top, state) = (dd.weight(psi.weight), dd.to_statevector(psi));
        let (gate_top, gate) = (dd.weight(u.weight), dd.to_matrix(u));
        for theta in [0.2, 0.5, 2.3] {
            let _ = rotated_state(&mut dd, theta);
        }
        dd.collect_garbage();
        assert!(dd.stats().weights_reclaimed > 0);
        assert_eq!(dd.weight(psi.weight), top);
        assert_eq!(dd.to_statevector(psi), state, "protected state must survive exactly");
        assert_eq!(dd.weight(u.weight), gate_top);
        assert!(dd.to_matrix(u).approx_eq_eps(&gate, 0.0), "protected gate must survive exactly");
        // The survivors still work as operands.
        let next = dd.multiply_mv(u, psi);
        assert!((dd.vector_norm_sqr(next) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn gc_reuses_freed_weight_ids() {
        let mut dd = DdPackage::new(3);
        let mut arena = Vec::new();
        for _ in 0..4 {
            let _ = rotated_state(&mut dd, 0.77);
            arena.push(dd.weights.len());
            dd.collect_garbage();
            assert_eq!(dd.live_weights(), 2);
        }
        assert!(arena[0] > 2);
        assert!(arena.iter().all(|&len| len == arena[0]), "weight arena must stay flat: {arena:?}");
    }

    #[test]
    fn peak_live_nodes_tracks_high_water_mark() {
        let mut dd = DdPackage::new(4);
        for i in 0..16 {
            let _ = dd.basis_state(i);
        }
        let peak = dd.peak_live_nodes();
        assert!(peak >= dd.live_nodes());
        dd.collect_garbage();
        assert_eq!(dd.peak_live_nodes(), peak, "peak must survive the sweep");
        assert!(dd.live_nodes() < peak);
    }
}
