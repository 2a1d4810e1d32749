//! Hash tables tuned for the QMDD hot path.
//!
//! The DD literature (Zulehner & Wille TCAD'19; the MQT DDSIM package)
//! is explicit that the table layer dominates DD simulation cost: every
//! node creation is a unique-table lookup and every recursion step is a
//! compute-table lookup. `std::collections::HashMap` pays SipHash plus
//! rehash-on-grow on that path; this module replaces it with
//!
//! * [`fx_word`]-based hashing — an FxHash-style multiply-rotate over the
//!   packed node words, a handful of cycles per key;
//! * [`UniqueTable`] — an open-addressed, linear-probe index of node ids
//!   whose keys live in the package's node arena (the table itself stores
//!   only `u32` ids, so a probe touches one contiguous cache line);
//! * [`ComputeTable`] — a fixed-size direct-mapped *lossy* cache for the
//!   add/mv/mm operations: a new entry simply evicts whatever hashed to
//!   the same slot, so lookup and store are both O(1) and the memory
//!   bound is a compile-time constant;
//! * [`WeightTable`] — an open-addressed index of canonical complex
//!   weights keyed by their tolerance bucket, supporting the 9-bucket
//!   neighbour probe that unifies values straddling a bucket boundary.
//!   Like the unique tables it is rebuilt wholesale at every GC.

use crate::package::Edge;

/// The FxHash multiplier (the same constant rustc's FxHasher uses).
const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Folds one 64-bit word into an FxHash-style running hash.
#[inline]
pub(crate) fn fx_word(hash: u64, word: u64) -> u64 {
    (hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED)
}

/// Packs an edge into a single hashable word.
#[inline]
pub(crate) fn pack_edge(edge: Edge) -> u64 {
    (u64::from(edge.node) << 32) | u64::from(edge.weight)
}

/// Empty-slot sentinel shared by the tables (node ids never reach it:
/// arenas are bounded well below `u32::MAX` entries).
const EMPTY: u32 = u32::MAX;

/// Open-addressed unique-table index: maps node *content* (stored in the
/// package arena) to the canonical node id. Linear probing, power-of-two
/// capacity, grows at 7/8 load. Deletion happens only wholesale — the GC
/// sweep rebuilds the table from the surviving nodes — so no tombstones
/// are needed.
#[derive(Debug)]
pub(crate) struct UniqueTable {
    slots: Box<[u32]>,
    bits: u32,
    len: usize,
}

impl UniqueTable {
    /// Creates a table with `1 << bits` slots.
    pub(crate) fn new(bits: u32) -> Self {
        Self { slots: vec![EMPTY; 1 << bits].into_boxed_slice(), bits, len: 0 }
    }

    #[inline]
    fn index(&self, hash: u64) -> usize {
        // The multiply pushes entropy into the high bits; index from there.
        (hash >> (64 - self.bits)) as usize
    }

    /// Number of stored ids.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Probes for an id whose arena node matches, per the caller's
    /// equality predicate.
    #[inline]
    pub(crate) fn find(&self, hash: u64, mut eq: impl FnMut(u32) -> bool) -> Option<u32> {
        let mask = self.slots.len() - 1;
        let mut i = self.index(hash);
        loop {
            let slot = self.slots[i];
            if slot == EMPTY {
                return None;
            }
            if eq(slot) {
                return Some(slot);
            }
            i = (i + 1) & mask;
        }
    }

    /// Inserts a fresh id under `hash`. `rehash` recomputes the hash of an
    /// already-stored id (needed when the insert triggers a grow).
    pub(crate) fn insert(&mut self, hash: u64, id: u32, rehash: impl Fn(u32) -> u64) {
        if (self.len + 1) * 8 > self.slots.len() * 7 {
            let old = std::mem::replace(
                &mut self.slots,
                vec![EMPTY; 1 << (self.bits + 1)].into_boxed_slice(),
            );
            self.bits += 1;
            for slot in old.iter().copied().filter(|&s| s != EMPTY) {
                self.place(rehash(slot), slot);
            }
        }
        self.place(hash, id);
        self.len += 1;
    }

    #[inline]
    fn place(&mut self, hash: u64, id: u32) {
        let mask = self.slots.len() - 1;
        let mut i = self.index(hash);
        while self.slots[i] != EMPTY {
            i = (i + 1) & mask;
        }
        self.slots[i] = id;
    }

    /// Drops every stored id (capacity is kept — the GC rebuild refills
    /// a table of the same size).
    pub(crate) fn clear(&mut self) {
        self.slots.fill(EMPTY);
        self.len = 0;
    }
}

/// One direct-mapped compute-table entry: operands and cached result.
#[derive(Debug, Clone, Copy)]
struct ComputeEntry {
    a: Edge,
    b: Edge,
    result: Edge,
}

const EMPTY_ENTRY: ComputeEntry = ComputeEntry {
    a: Edge { node: EMPTY, weight: EMPTY },
    b: Edge { node: EMPTY, weight: EMPTY },
    result: Edge { node: EMPTY, weight: EMPTY },
};

/// Fixed-size direct-mapped lossy cache for one DD operation
/// (MQT-DDSIM style). Collisions overwrite — the cache trades recall for
/// O(1) cost and a hard memory bound, which on deep circuits beats an
/// unbounded map whose growth rehashes and whose footprint never shrinks.
#[derive(Debug)]
pub(crate) struct ComputeTable {
    entries: Box<[ComputeEntry]>,
    bits: u32,
}

impl ComputeTable {
    /// Creates a table with `1 << bits` entries.
    pub(crate) fn new(bits: u32) -> Self {
        Self { entries: vec![EMPTY_ENTRY; 1 << bits].into_boxed_slice(), bits }
    }

    #[inline]
    fn index(&self, a: Edge, b: Edge) -> usize {
        let hash = fx_word(fx_word(0, pack_edge(a)), pack_edge(b));
        (hash >> (64 - self.bits)) as usize
    }

    /// Returns the cached result for `(a, b)`, if this exact pair still
    /// occupies its slot.
    #[inline]
    pub(crate) fn lookup(&self, a: Edge, b: Edge) -> Option<Edge> {
        let entry = &self.entries[self.index(a, b)];
        (entry.a == a && entry.b == b).then_some(entry.result)
    }

    /// Stores `(a, b) -> result`, evicting whatever hashed to the slot.
    #[inline]
    pub(crate) fn store(&mut self, a: Edge, b: Edge, result: Edge) {
        let i = self.index(a, b);
        self.entries[i] = ComputeEntry { a, b, result };
    }

    /// Invalidates every entry (GC sweep: cached results may reference
    /// reclaimed nodes).
    pub(crate) fn reset(&mut self) {
        self.entries.fill(EMPTY_ENTRY);
    }
}

/// One weight-table slot: the tolerance-bucket key plus the weight id.
#[derive(Debug, Clone, Copy)]
struct WeightSlot {
    key: (i64, i64),
    id: u32,
}

/// Open-addressed index of canonical complex weights keyed by tolerance
/// bucket. Unlike a plain map it tolerates several entries under the same
/// bucket key (linear probing just walks past non-matching values), so a
/// bucket can never silently lose an earlier canonical weight. Deletion
/// happens only wholesale, as in [`UniqueTable`]: the GC sweep clears the
/// table and reinserts the surviving weights.
#[derive(Debug)]
pub(crate) struct WeightTable {
    slots: Box<[WeightSlot]>,
    bits: u32,
    len: usize,
}

const EMPTY_WEIGHT: WeightSlot = WeightSlot { key: (0, 0), id: EMPTY };

impl WeightTable {
    /// Creates a table with `1 << bits` slots.
    pub(crate) fn new(bits: u32) -> Self {
        Self { slots: vec![EMPTY_WEIGHT; 1 << bits].into_boxed_slice(), bits, len: 0 }
    }

    #[inline]
    fn index(&self, key: (i64, i64)) -> usize {
        let hash = fx_word(fx_word(0, key.0 as u64), key.1 as u64);
        (hash >> (64 - self.bits)) as usize
    }

    /// Probes the bucket `key` for an id whose stored weight satisfies the
    /// caller's tolerance predicate.
    #[inline]
    pub(crate) fn find(
        &self,
        key: (i64, i64),
        mut matches: impl FnMut(u32) -> bool,
    ) -> Option<u32> {
        let mask = self.slots.len() - 1;
        let mut i = self.index(key);
        loop {
            let slot = self.slots[i];
            if slot.id == EMPTY {
                return None;
            }
            if slot.key == key && matches(slot.id) {
                return Some(slot.id);
            }
            i = (i + 1) & mask;
        }
    }

    /// Inserts a fresh weight id under its bucket key.
    pub(crate) fn insert(&mut self, key: (i64, i64), id: u32) {
        if (self.len + 1) * 8 > self.slots.len() * 7 {
            let old = std::mem::replace(
                &mut self.slots,
                vec![EMPTY_WEIGHT; 1 << (self.bits + 1)].into_boxed_slice(),
            );
            self.bits += 1;
            for slot in old.iter().copied().filter(|s| s.id != EMPTY) {
                self.place(slot);
            }
        }
        self.place(WeightSlot { key, id });
        self.len += 1;
    }

    #[inline]
    fn place(&mut self, slot: WeightSlot) {
        let mask = self.slots.len() - 1;
        let mut i = self.index(slot.key);
        while self.slots[i].id != EMPTY {
            i = (i + 1) & mask;
        }
        self.slots[i] = slot;
    }

    /// Drops every stored id (capacity is kept — the GC rebuild refills
    /// a table of the same size).
    pub(crate) fn clear(&mut self) {
        self.slots.fill(EMPTY_WEIGHT);
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge(node: u32, weight: u32) -> Edge {
        Edge { node, weight }
    }

    #[test]
    fn unique_table_finds_by_content_and_grows() {
        // Keys live outside the table: simulate an arena of u64 keys.
        let arena: Vec<u64> = (0..2000).map(|i| i * 7919).collect();
        let hash = |k: u64| fx_word(0, k);
        let mut table = UniqueTable::new(4); // deliberately tiny: force growth
        for (id, &key) in arena.iter().enumerate() {
            assert_eq!(table.find(hash(key), |slot| arena[slot as usize] == key), None);
            table.insert(hash(key), id as u32, |slot| hash(arena[slot as usize]));
        }
        assert_eq!(table.len(), arena.len());
        for (id, &key) in arena.iter().enumerate() {
            assert_eq!(table.find(hash(key), |slot| arena[slot as usize] == key), Some(id as u32));
        }
        table.clear();
        assert_eq!(table.len(), 0);
        assert_eq!(table.find(hash(arena[0]), |slot| arena[slot as usize] == arena[0]), None);
    }

    #[test]
    fn compute_table_is_lossy_but_exact() {
        let mut table = ComputeTable::new(4);
        table.store(edge(1, 1), edge(2, 1), edge(3, 1));
        assert_eq!(table.lookup(edge(1, 1), edge(2, 1)), Some(edge(3, 1)));
        // A different pair either misses or (on slot collision) evicted the
        // original — it must never return a wrong result.
        assert_eq!(table.lookup(edge(2, 1), edge(1, 1)), None);
        for i in 0..100u32 {
            table.store(edge(i, 1), edge(i, 2), edge(i, 3));
        }
        for i in 0..100u32 {
            if let Some(result) = table.lookup(edge(i, 1), edge(i, 2)) {
                assert_eq!(result, edge(i, 3), "stale entries must never surface");
            }
        }
        table.reset();
        assert_eq!(table.lookup(edge(1, 1), edge(2, 1)), None);
    }

    #[test]
    fn weight_table_keeps_same_bucket_entries_distinct() {
        // Two ids under one bucket key: probing must keep both reachable.
        let mut table = WeightTable::new(4);
        table.insert((5, -3), 0);
        table.insert((5, -3), 1);
        assert_eq!(table.find((5, -3), |id| id == 0), Some(0));
        assert_eq!(table.find((5, -3), |id| id == 1), Some(1));
        assert_eq!(table.find((5, -3), |id| id == 9), None);
        assert_eq!(table.find((6, -3), |_| true), None);
        // Growth keeps every entry findable.
        for i in 2..200 {
            table.insert((i, i), i as u32);
        }
        assert_eq!(table.find((100, 100), |id| id == 100), Some(100));
        assert_eq!(table.find((5, -3), |id| id == 1), Some(1));
        table.clear();
        assert_eq!(table.find((5, -3), |_| true), None);
        table.insert((5, -3), 7);
        assert_eq!(table.find((5, -3), |id| id == 7), Some(7));
    }
}
