//! Seeded input generation.
//!
//! Every input the benchmark hands to the library is built here from the
//! run's `--seed`. The same seed gives the same circuits, bit for bit; the
//! program under test never sees the seed itself. Each workload draws from
//! its own named stream, so adding a draw to one workload leaves the inputs
//! of the others unchanged.
//!
//! Sets are stratified: the mix of circuit kinds and sizes is fixed and
//! only the details (angles, secrets, qubit orders, gate placement) come
//! from the seed. That keeps the cost of a set nearly the same from seed to
//! seed, so run-to-run spread measures the program, not the draw.

use qukit::terra::circuit::QuantumCircuit;
use std::f64::consts::PI;

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `(seed, name)`; distinct names give independent streams.
    pub fn stream(seed: u64, name: &str) -> Self {
        let salt = name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        Rng(seed ^ salt)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform angle in `[0, 2π)`.
    pub fn angle(&mut self) -> f64 {
        2.0 * PI * self.unit()
    }

    /// A uniformly random permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, self.below(i + 1));
        }
        order
    }

    /// Shuffles `items` in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// What a generated circuit is, which fixes how its output is checked.
#[derive(Debug, Clone, PartialEq)]
pub enum Kind {
    /// GHZ over all qubits with relative phase `phase`: outcomes
    /// all-zeros and all-ones, 1/2 each.
    Ghz {
        /// Phase of the all-ones amplitude.
        phase: f64,
    },
    /// QFT applied to the basis state `input`: a uniform product state.
    QftBasis {
        /// The prepared basis state.
        input: u64,
    },
    /// Bernstein–Vazirani: the single outcome `answer` (secret plus the
    /// ancilla bit).
    Bv {
        /// The one outcome with probability 1.
        answer: u64,
    },
    /// Seeded gates with no closed form; checked against `terra::reference`.
    Random,
    /// `U · barrier · U†`: every shot must read all zeros.
    Mirror,
}

/// A generated input and what it is.
#[derive(Debug, Clone)]
pub struct Input {
    /// The circuit handed to the library (no measurements; `execute`
    /// measures every qubit).
    pub circuit: QuantumCircuit,
    /// The kind, for the output check.
    pub kind: Kind,
}

impl Input {
    fn new(circuit: QuantumCircuit, kind: Kind) -> Self {
        Self { circuit, kind }
    }

    /// Number of gates (barriers excluded).
    pub fn gates(&self) -> usize {
        self.circuit.num_gates()
    }

    /// Number of qubits.
    pub fn qubits(&self) -> usize {
        self.circuit.num_qubits()
    }
}

/// GHZ along a chain visiting the qubits in `order`, with relative phase
/// `phase` on the all-ones amplitude (none for a zero phase).
pub fn ghz(order: &[usize], phase: f64) -> Input {
    let mut c = QuantumCircuit::new(order.len());
    c.h(order[0]).expect("qubit in range");
    if phase != 0.0 {
        c.p(phase, order[0]).expect("qubit in range");
    }
    for pair in order.windows(2) {
        c.cx(pair[0], pair[1]).expect("qubits in range");
    }
    Input::new(c, Kind::Ghz { phase })
}

/// QFT (no final swaps) applied to the `n`-qubit basis state `input`.
pub fn qft_basis(n: usize, input: u64) -> Input {
    let mut c = QuantumCircuit::new(n);
    for q in 0..n {
        if (input >> q) & 1 == 1 {
            c.x(q).expect("qubit in range");
        }
    }
    for q in 0..n {
        c.h(q).expect("qubit in range");
        for k in q + 1..n {
            c.cp(PI / (1u64 << (k - q)) as f64, k, q).expect("qubits in range");
        }
    }
    Input::new(c, Kind::QftBasis { input })
}

/// A Bernstein–Vazirani secret over `data` bits with half of them set, at
/// seeded positions, so its CX count does not depend on the seed.
pub fn half_secret(rng: &mut Rng, data: usize) -> u64 {
    rng.permutation(data).iter().take(data.div_ceil(2)).fold(0, |s, &q| s | 1 << q)
}

/// Bernstein–Vazirani over `n` qubits: `n − 1` data qubits holding
/// `secret`, ancilla `n − 1` returned to |1⟩.
pub fn bv(n: usize, secret: u64) -> Input {
    let anc = n - 1;
    let mut c = QuantumCircuit::new(n);
    c.x(anc).expect("qubit in range");
    for q in 0..n {
        c.h(q).expect("qubit in range");
    }
    for q in 0..anc {
        if (secret >> q) & 1 == 1 {
            c.cx(q, anc).expect("qubits in range");
        }
    }
    for q in 0..n {
        c.h(q).expect("qubit in range");
    }
    let mask = (1u64 << anc) - 1;
    Input::new(c, Kind::Bv { answer: (secret & mask) | (1 << anc) })
}

/// `gates` seeded gates on `n` qubits: every fourth a CX on seeded
/// qubits, the rest drawn from H, S, T, SX and seeded RZ/RY rotations.
/// The CX count is fixed, so the cost barely depends on the seed.
pub fn random(rng: &mut Rng, n: usize, gates: usize) -> Input {
    let mut c = QuantumCircuit::new(n);
    for i in 0..gates {
        let a = rng.below(n);
        let res = if i % 4 == 3 && n > 1 {
            c.cx(a, (a + 1 + rng.below(n - 1)) % n)
        } else {
            match rng.below(6) {
                0 => c.h(a),
                1 => c.rz(rng.angle(), a),
                2 => c.ry(rng.angle(), a),
                3 => c.t(a),
                4 => c.sx(a),
                _ => c.s(a),
            }
        };
        res.expect("qubits in range");
    }
    Input::new(c, Kind::Random)
}

/// `layers` layers of seeded RY/RZ rotations on every qubit, each followed
/// by a CX ladder: a random state from a fixed gate structure, so the
/// transpiler's work does not depend on the seed.
pub fn layered(rng: &mut Rng, n: usize, layers: usize) -> Input {
    let mut c = QuantumCircuit::new(n);
    for layer in 0..layers {
        for q in 0..n {
            c.ry(rng.angle(), q).expect("qubit in range");
            c.rz(rng.angle(), q).expect("qubit in range");
        }
        for q in (layer % 2..n - 1).step_by(2) {
            c.cx(q, q + 1).expect("qubits in range");
        }
    }
    Input::new(c, Kind::Random)
}

/// A Clifford+T stream of `gates` gates on `n` qubits (CX, H, S, T).
pub fn clifford_t(rng: &mut Rng, n: usize, gates: usize) -> Input {
    let mut c = QuantumCircuit::new(n);
    for _ in 0..gates {
        let a = rng.below(n);
        let res = match rng.below(4) {
            0 => {
                let b = (a + 1 + rng.below(n - 1)) % n;
                c.cx(a, b)
            }
            1 => c.h(a),
            2 => c.s(a),
            _ => c.t(a),
        };
        res.expect("qubits in range");
    }
    Input::new(c, Kind::Random)
}

/// The first `gates` gates of `input` (its kind becomes [`Kind::Random`]).
pub fn prefix(input: &Input, gates: usize) -> Input {
    let mut c = input.circuit.clone();
    c.clear();
    for inst in input.circuit.instructions().iter().take(gates) {
        c.push(inst.clone()).expect("instruction from a valid circuit");
    }
    Input::new(c, Kind::Random)
}

/// A mirror circuit on `n` qubits: `layers` layers of seeded rotations on
/// every qubit followed by a CX ladder, then a barrier and the inverse.
pub fn mirror(rng: &mut Rng, n: usize, layers: usize) -> Input {
    let mut u = QuantumCircuit::new(n);
    for _ in 0..layers {
        for q in 0..n {
            u.u(rng.angle(), rng.angle(), rng.angle(), q).expect("qubit in range");
        }
        let offset = rng.below(2);
        for q in (offset..n - 1).step_by(2) {
            u.cx(q, q + 1).expect("qubits in range");
        }
    }
    let mut c = u.clone();
    c.barrier_all();
    c.compose(&u.inverse().expect("unitary circuit")).expect("same width");
    Input::new(c, Kind::Mirror)
}

/// `svc_open` payloads: one fresh circuit of 2–8 qubits and 10–60 gates.
pub fn svc_payload(rng: &mut Rng) -> Input {
    let n = 2 + rng.below(7);
    let gates = 10 + rng.below(51);
    random(rng, n, gates)
}

/// `device_noisy` inputs: GHZ (seeded phase), QFT (seeded basis state),
/// BV (seeded secret, half the bits set) and layered random circuits
/// (seeded angles) at each of 3–6 logical qubits, `variants` instances of
/// each. The seed changes values, not gate structure, so routing cost is
/// the same from seed to seed.
pub fn device_set(rng: &mut Rng, variants: usize) -> Vec<Input> {
    let mut set = Vec::new();
    for n in 3..=6 {
        let chain: Vec<usize> = (0..n).collect();
        for _ in 0..variants {
            set.push(ghz(&chain, rng.angle()));
            set.push(qft_basis(n, rng.next_u64() & ((1 << n) - 1)));
            set.push(bv(n, half_secret(rng, n - 1)));
            set.push(layered(rng, n, 2));
        }
    }
    set
}

/// `sv_dense` narrow inputs: random and QFT-on-basis circuits at 12, 13
/// and 14 qubits, `variants` seeded instances of each.
pub fn narrow_set(rng: &mut Rng, variants: usize) -> Vec<Input> {
    let mut set = Vec::new();
    for n in 12..=14 {
        for _ in 0..variants {
            set.push(random(rng, n, 10 * n));
            set.push(qft_basis(n, rng.next_u64() & ((1 << n) - 1)));
        }
    }
    set
}

/// Width of the `sv_dense` wide class: a 256 MiB statevector.
pub const WIDE_QUBITS: usize = 24;

/// `sv_dense` wide inputs: one GHZ along a seeded chain and one mirror
/// circuit, both on [`WIDE_QUBITS`] qubits.
pub fn wide_set(rng: &mut Rng) -> Vec<Input> {
    vec![ghz(&rng.permutation(WIDE_QUBITS), 0.0), mirror(rng, WIDE_QUBITS, 1)]
}

/// `dd_sim` struct inputs: GHZ with a seeded phase at 32–64 qubits, and
/// QFT on seeded basis states and BV with seeded secrets (half the bits
/// set) at 16–24 qubits. As for the device set, the seed changes values,
/// not structure: a seeded chain order changes a GHZ's decision-diagram
/// cost enough to reorder the set and move its median.
pub fn struct_set(rng: &mut Rng) -> Vec<Input> {
    let mut set = Vec::new();
    for n in [32, 40, 48, 56, 64] {
        set.push(ghz(&(0..n).collect::<Vec<_>>(), rng.angle()));
    }
    for n in [16, 20, 24] {
        set.push(qft_basis(n, rng.next_u64() & ((1 << n) - 1)));
        set.push(bv(n, half_secret(rng, n - 1)));
    }
    set
}

/// Qubits and length of the `dd_sim` deep stream.
pub const DEEP_QUBITS: usize = 8;
/// Gates in the `dd_sim` deep stream.
pub const DEEP_GATES: usize = 20_000;
/// Prefix length for the head-of-stream per-gate cost.
pub const DEEP_HEAD_GATES: usize = 1_000;

/// The `dd_sim` deep input: one Clifford+T stream.
pub fn deep_stream(rng: &mut Rng) -> Input {
    clifford_t(rng, DEEP_QUBITS, DEEP_GATES)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qukit::terra::qasm;

    fn fingerprint(seed: u64) -> Vec<String> {
        let mut svc = Rng::stream(seed, "svc");
        let mut dev = Rng::stream(seed, "dev");
        let mut sv = Rng::stream(seed, "sv");
        let mut dd = Rng::stream(seed, "dd");
        let mut all: Vec<Input> = (0..20).map(|_| svc_payload(&mut svc)).collect();
        all.extend(device_set(&mut dev, 2));
        all.extend(narrow_set(&mut sv, 1));
        all.push(mirror(&mut sv, 6, 2));
        all.extend(struct_set(&mut dd));
        all.push(clifford_t(&mut dd, 4, 200));
        all.iter().map(|i| format!("{:?}|{}", i.kind, qasm::emit(&i.circuit))).collect()
    }

    #[test]
    fn the_same_seed_gives_identical_inputs() {
        assert_eq!(fingerprint(7), fingerprint(7));
    }

    #[test]
    fn a_different_seed_gives_different_inputs() {
        let (a, b) = (fingerprint(7), fingerprint(8));
        assert_eq!(a.len(), b.len());
        let differing = a.iter().zip(&b).filter(|(x, y)| x != y).count();
        // GHZ chains over few qubits may coincide; nearly everything else
        // must change.
        assert!(differing * 10 >= a.len() * 8, "only {differing} of {} differ", a.len());
    }

    #[test]
    fn streams_are_independent_of_each_other() {
        let mut a = Rng::stream(3, "svc");
        let mut b = Rng::stream(3, "dev");
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn sets_have_the_documented_shape() {
        let mut rng = Rng::stream(1, "shape");
        let dev = device_set(&mut rng, 2);
        assert_eq!(dev.len(), 4 * 4 * 2);
        assert!(dev.iter().all(|i| (3..=6).contains(&i.qubits())));
        let wide = wide_set(&mut rng);
        assert!(wide.iter().all(|i| i.qubits() == WIDE_QUBITS));
        for _ in 0..50 {
            let p = svc_payload(&mut rng);
            assert!((2..=8).contains(&p.qubits()));
            assert!((10..=60).contains(&p.gates()));
        }
        let deep = deep_stream(&mut rng);
        assert_eq!(deep.gates(), DEEP_GATES);
        assert_eq!(prefix(&deep, DEEP_HEAD_GATES).gates(), DEEP_HEAD_GATES);
    }
}
