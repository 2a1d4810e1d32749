//! The stack's one copy of its small, seeded hash functions.
//!
//! Every seeded stream and content key in qukit is built from these:
//! SplitMix64 drives retry jitter, fault injection, result-cache
//! re-sampling, span/trace ids, the dense engine's per-batch shot seeds
//! and the load generator; FNV-1a 64 names
//! conformance reproducers and fingerprints backends; and the dual-FNV
//! [`Fnv128`] hasher keys the transpile and result caches. Keeping one
//! definition here means a seeded output cannot drift between crates.
//!
//! (The `rand` shim keeps its own SplitMix64, because it stands in for
//! an external crate and must not depend on the workspace.)

/// The SplitMix64 increment (the 64-bit golden ratio).
pub const SPLITMIX64_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The SplitMix64 output function: a bijective 64-bit finalizer.
#[inline]
pub fn splitmix64_mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One SplitMix64 step: advances `state` by [`SPLITMIX64_GAMMA`] and
/// returns the mixed value.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(SPLITMIX64_GAMMA);
    splitmix64_mix(*state)
}

#[inline]
fn fnv_step(hash: u64, byte: u8) -> u64 {
    (hash ^ u64::from(byte)).wrapping_mul(FNV_PRIME)
}

/// 64-bit FNV-1a of `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |hash, &byte| fnv_step(hash, byte))
}

/// A 128-bit content hasher: two FNV-1a 64 streams with distinct bases
/// (the high stream also sees each byte offset by `0x33`), so unrelated
/// inputs colliding is negligible.
#[derive(Debug, Clone, Copy)]
pub struct Fnv128 {
    lo: u64,
    hi: u64,
}

impl Default for Fnv128 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv128 {
    /// A hasher with nothing fed yet.
    pub fn new() -> Self {
        Self { lo: FNV_OFFSET, hi: FNV_OFFSET ^ 0x5bd1_e995_9d02_9c4f }
    }

    /// Feeds raw bytes.
    pub fn write(&mut self, bytes: &[u8]) -> &mut Self {
        for &byte in bytes {
            self.lo = fnv_step(self.lo, byte);
            self.hi = fnv_step(self.hi, byte.wrapping_add(0x33));
        }
        self
    }

    /// Feeds one field: its bytes, then a `0xff` separator on both
    /// streams so adjacent fields cannot alias.
    pub fn field(&mut self, bytes: &[u8]) -> &mut Self {
        self.write(bytes);
        self.lo = fnv_step(self.lo, 0xff);
        self.hi = fnv_step(self.hi, 0xff);
        self
    }

    /// The 128-bit key: high stream in the top half.
    pub fn finish(&self) -> u128 {
        (u128::from(self.hi) << 64) | u128::from(self.lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_published_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn splitmix64_matches_the_reference_stream() {
        let mut state = 0;
        assert_eq!(splitmix64(&mut state), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(&mut state), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(state, SPLITMIX64_GAMMA.wrapping_mul(2));
    }

    #[test]
    fn fnv128_low_half_is_fnv1a_with_separators() {
        let mut hasher = Fnv128::new();
        hasher.field(b"a").write(b"b");
        assert_eq!(hasher.finish() as u64, fnv1a64(b"a\xffb"));
        let mut split = Fnv128::new();
        split.field(b"ab").field(b"c");
        let mut shifted = Fnv128::new();
        shifted.field(b"a").field(b"bc");
        assert_ne!(split.finish(), shifted.finish(), "field boundaries separate keys");
    }
}
