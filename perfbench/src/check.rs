//! Output checks. All of them run outside the timed region.
//!
//! Sampled outputs are compared with exact reference distributions by
//! total-variation distance (TVD). With `N` shots the expected TVD of a
//! correct sampler is at most `½·Σ√(p(1−p)/N)`, and McDiarmid's inequality
//! bounds the chance of exceeding that by more than [`TVD_MARGIN`] at
//! `exp(−2·N·margin²)` — about 1e-9 for 1024 shots — so a correct program
//! essentially never fails a check, while a wrong distribution (TVD near 1
//! for a planted answer) always does. Distributions over more than
//! [`GROUP_QUBITS`] qubits are compared marginal by marginal over groups of
//! at most that many qubits, which keeps the bound informative at 1024
//! shots.

use qukit::terra::complex::Complex;
use qukit::terra::reference;
use qukit::Counts;

use crate::gen::{Input, Kind};

/// Slack added to the expected TVD (see the module docs).
pub const TVD_MARGIN: f64 = 0.1;
/// Widest marginal compared as one distribution.
pub const GROUP_QUBITS: usize = 6;
/// Amplitude tolerance for the decision-diagram checks.
pub const AMP_TOL: f64 = 1e-10;

/// Result of one check: `Err` carries what was wrong.
pub type Check = Result<(), String>;

/// Exact outcome probabilities of `input` (all qubits measured, qubit `q`
/// on bit `q`), from `terra::reference`.
pub fn reference_probs(input: &Input) -> Vec<f64> {
    reference::statevector(&input.circuit)
        .expect("generated circuits are unitary")
        .iter()
        .map(|a| a.norm_sqr())
        .collect()
}

/// Probabilities of the bits in `group` under `probs`.
fn marginal_probs(probs: &[f64], group: &[usize]) -> Vec<f64> {
    let mut out = vec![0.0; 1 << group.len()];
    for (outcome, &p) in probs.iter().enumerate() {
        out[project(outcome as u64, group)] += p;
    }
    out
}

fn project(outcome: u64, group: &[usize]) -> usize {
    group.iter().enumerate().fold(0, |acc, (j, &q)| acc | ((((outcome >> q) & 1) as usize) << j))
}

/// TVD of `counts` against `probs`, and the bound it must stay within.
fn tvd_with_bound(
    counts: &[(u64, usize)],
    shots: usize,
    probs: &[f64],
    group: &[usize],
) -> (f64, f64) {
    let mut observed = vec![0.0; probs.len()];
    for &(outcome, n) in counts {
        observed[project(outcome, group)] += n as f64 / shots as f64;
    }
    let tvd = 0.5 * probs.iter().zip(&observed).map(|(p, o)| (p - o).abs()).sum::<f64>();
    let expected = 0.5 * probs.iter().map(|p| (p * (1.0 - p) / shots as f64).sqrt()).sum::<f64>();
    (tvd, expected + TVD_MARGIN)
}

/// Checks sampled `counts` of an `n`-qubit circuit against the exact
/// distribution `probs`, marginal by marginal.
pub fn counts_match(counts: &Counts, probs: &[f64], n: usize) -> Check {
    let shots = counts.total();
    if shots == 0 {
        return Err("no shots recorded".into());
    }
    let pairs: Vec<(u64, usize)> = counts.iter().collect();
    if let Some(&(bad, _)) = pairs.iter().find(|&&(o, _)| o >> n != 0) {
        return Err(format!("outcome {bad:#x} outside {n} qubits"));
    }
    let qubits: Vec<usize> = (0..n).collect();
    for group in qubits.chunks(GROUP_QUBITS) {
        let (tvd, bound) = tvd_with_bound(&pairs, shots, &marginal_probs(probs, group), group);
        if tvd > bound {
            return Err(format!("TVD {tvd:.4} > bound {bound:.4} on qubits {group:?}"));
        }
    }
    Ok(())
}

/// Checks that a job returned exactly `shots` shots.
pub fn shots_match(counts: &Counts, shots: usize) -> Check {
    if counts.total() == shots {
        Ok(())
    } else {
        Err(format!("{} shots returned for {shots} submitted", counts.total()))
    }
}

/// Checks counts of a circuit whose distribution is known in closed form:
/// GHZ (all-zeros / all-ones, half each), BV (one outcome), mirror (all
/// zeros) and QFT on a basis state (uniform: nearly every shot distinct).
pub fn known_counts(input: &Input, counts: &Counts) -> Check {
    let n = input.qubits();
    let shots = counts.total();
    let all_ones = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
    let only = |allowed: &[u64]| -> Check {
        match counts.iter().find(|(o, _)| !allowed.contains(o)) {
            Some((o, _)) => Err(format!("{:?}: unexpected outcome {o:#x}", input.kind)),
            None => Ok(()),
        }
    };
    match &input.kind {
        Kind::Ghz { .. } => {
            only(&[0, all_ones])?;
            let pairs: Vec<(u64, usize)> =
                counts.iter().map(|(o, c)| (u64::from(o != 0), c)).collect();
            let (tvd, bound) = tvd_with_bound(&pairs, shots, &[0.5, 0.5], &[0]);
            if tvd > bound {
                return Err(format!("GHZ halves off by TVD {tvd:.4} > {bound:.4}"));
            }
            Ok(())
        }
        Kind::Bv { answer } => only(&[*answer]),
        Kind::Mirror => only(&[0]),
        Kind::QftBasis { .. } => {
            // 1024 shots over ≥ 2^16 equally likely outcomes collide a few
            // times at most; a concentrated answer collides constantly.
            if n >= 16 && counts.len() * 10 < shots * 9 {
                return Err(format!(
                    "uniform QFT output has only {} distinct outcomes",
                    counts.len()
                ));
            }
            Ok(())
        }
        Kind::Random => Err("random circuits have no closed form; use counts_match".into()),
    }
}

/// Exact amplitude of basis state `index` for the closed-form kinds, or
/// `None` for [`Kind::Random`] and [`Kind::Mirror`] (checked by other means).
pub fn known_amplitude(input: &Input, index: u64) -> Option<Complex> {
    let n = input.qubits();
    let all_ones = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
    match &input.kind {
        Kind::Ghz { phase } => {
            let half = std::f64::consts::FRAC_1_SQRT_2;
            Some(match index {
                0 => Complex { re: half, im: 0.0 },
                i if i == all_ones => Complex::from_polar(half, *phase),
                _ => Complex { re: 0.0, im: 0.0 },
            })
        }
        Kind::Bv { answer } => {
            Some(Complex { re: if index == *answer { 1.0 } else { 0.0 }, im: 0.0 })
        }
        Kind::QftBasis { input: x } => {
            // Qubit q ends in (|0⟩ + e^{iθ_q}|1⟩)/√2 with
            // θ_q = π · Σ_{k≥q} x_k / 2^{k−q}.
            let theta = |q: usize| -> f64 {
                (q..n)
                    .filter(|&k| (x >> k) & 1 == 1)
                    .map(|k| std::f64::consts::PI / (1u64 << (k - q)) as f64)
                    .sum()
            };
            let phase: f64 = (0..n).filter(|&q| (index >> q) & 1 == 1).map(theta).sum();
            Some(Complex::from_polar((0.5f64).powf(n as f64 / 2.0), phase))
        }
        Kind::Random | Kind::Mirror => None,
    }
}

/// Checks `amplitude(index)` against [`known_amplitude`] at `indices`.
pub fn amplitudes_match(
    input: &Input,
    indices: &[u64],
    amplitude: impl Fn(u64) -> Complex,
) -> Check {
    for &index in indices {
        let want = known_amplitude(input, index).ok_or("kind has no closed form")?;
        let got = amplitude(index);
        let err = ((got.re - want.re).powi(2) + (got.im - want.im).powi(2)).sqrt();
        if err > AMP_TOL {
            return Err(format!(
                "{:?}: amplitude[{index:#x}] = {:.12}{:+.12}i, expected {:.12}{:+.12}i",
                input.kind, got.re, got.im, want.re, want.im
            ));
        }
    }
    Ok(())
}

/// Checks a full statevector against `terra::reference`, element by element.
pub fn statevector_match(input: &Input, got: &[Complex]) -> Check {
    let want = reference::statevector(&input.circuit).expect("generated circuits are unitary");
    if got.len() != want.len() {
        return Err(format!("{} amplitudes, expected {}", got.len(), want.len()));
    }
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        let err = ((g.re - w.re).powi(2) + (g.im - w.im).powi(2)).sqrt();
        if err > AMP_TOL {
            return Err(format!("amplitude[{i}] differs from the dense reference by {err:.3e}"));
        }
    }
    Ok(())
}

/// Job lifecycle ledger check: every job reached exactly one terminal
/// event. `terminals[i]` is the number of terminal events of job `i`.
pub fn exactly_once(terminals: &[u32]) -> Check {
    let bad: Vec<usize> = (0..terminals.len()).filter(|&i| terminals[i] != 1).collect();
    match bad.first() {
        None => Ok(()),
        Some(&i) => Err(format!(
            "{} jobs without exactly one terminal event (first: #{i} with {})",
            bad.len(),
            terminals[i]
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{self, Rng};
    use qukit::execute::execute;
    use qukit::{DdSimulatorBackend, QasmSimulatorBackend};

    fn run(input: &Input, seed: u64) -> Counts {
        execute(&input.circuit, &QasmSimulatorBackend::new().with_seed(seed), 1024).unwrap()
    }

    /// `counts` with every outcome's bits rotated by one position.
    fn rotated(counts: &Counts, n: usize) -> Counts {
        let mut out = Counts::new(counts.num_clbits());
        for (o, c) in counts.iter() {
            out.record_n(((o << 1) | (o >> (n - 1))) & ((1 << n) - 1), c);
        }
        out
    }

    #[test]
    fn tvd_check_accepts_the_right_distribution_and_catches_a_wrong_one() {
        let mut rng = Rng::stream(5, "check");
        for n in [3, 8, 12] {
            // Shallow circuits keep the distribution far from uniform; two
            // near-uniform distributions are alike at any shot count.
            let input = gen::random(&mut rng, n, 3 * n);
            let probs = reference_probs(&input);
            let good = run(&input, 11);
            counts_match(&good, &probs, n).unwrap();
            // Planted wrong answers: another circuit's output, and the right
            // output with its bits rotated.
            let other = run(&gen::random(&mut rng, n, 3 * n), 12);
            assert!(counts_match(&other, &probs, n).is_err(), "n={n}: foreign counts passed");
            assert!(counts_match(&rotated(&good, n), &probs, n).is_err(), "n={n}: rotated passed");
        }
    }

    #[test]
    fn shot_total_check_catches_a_lost_shot() {
        let mut counts = Counts::new(2);
        counts.record_n(0, 1023);
        assert!(shots_match(&counts, 1024).is_err());
        counts.record(3);
        shots_match(&counts, 1024).unwrap();
    }

    #[test]
    fn known_distribution_checks_catch_planted_answers() {
        let mut rng = Rng::stream(6, "check");
        let ghz = gen::ghz(&rng.permutation(10), 0.0);
        known_counts(&ghz, &run(&ghz, 1)).unwrap();
        let mut lopsided = Counts::new(10);
        lopsided.record_n(0, 900);
        lopsided.record_n(1023, 124);
        assert!(known_counts(&ghz, &lopsided).is_err());
        let mut stray = run(&ghz, 2);
        stray.record(5);
        assert!(known_counts(&ghz, &stray).is_err());

        let mirror = gen::mirror(&mut rng, 8, 2);
        known_counts(&mirror, &run(&mirror, 3)).unwrap();
        let mut flipped = Counts::new(8);
        flipped.record_n(0, 1023);
        flipped.record(1);
        assert!(known_counts(&mirror, &flipped).is_err());

        let bv = gen::bv(9, rng.next_u64());
        known_counts(&bv, &run(&bv, 4)).unwrap();
        let Kind::Bv { answer } = bv.kind else { unreachable!("bv() builds a BV input") };
        let mut wrong = Counts::new(9);
        wrong.record_n(answer ^ 1, 1024);
        assert!(known_counts(&bv, &wrong).is_err());

        let qft = gen::qft_basis(16, 12345);
        let dd = DdSimulatorBackend::new().with_seed(9);
        known_counts(&qft, &execute(&qft.circuit, &dd, 1024).unwrap()).unwrap();
        let mut concentrated = Counts::new(16);
        concentrated.record_n(7, 1024);
        assert!(known_counts(&qft, &concentrated).is_err());
    }

    #[test]
    fn closed_form_amplitudes_match_the_reference_and_catch_a_planted_error() {
        let mut rng = Rng::stream(7, "amp");
        for input in [
            gen::ghz(&rng.permutation(6), 1.0),
            gen::qft_basis(6, 0b101101),
            gen::bv(6, rng.next_u64()),
        ] {
            let state = reference::statevector(&input.circuit).unwrap();
            let all: Vec<u64> = (0..64).collect();
            amplitudes_match(&input, &all, |i| state[i as usize]).unwrap();
            let planted = |i: u64| {
                let a = state[i as usize];
                if i == 0 {
                    Complex { re: a.re, im: a.im + 1e-6 }
                } else {
                    a
                }
            };
            assert!(amplitudes_match(&input, &all, planted).is_err());
        }
    }

    #[test]
    fn statevector_check_catches_a_perturbed_amplitude() {
        let mut rng = Rng::stream(8, "sv");
        let input = gen::clifford_t(&mut rng, 5, 300);
        let mut state = reference::statevector(&input.circuit).unwrap();
        statevector_match(&input, &state).unwrap();
        state[3].re += 1e-8;
        assert!(statevector_match(&input, &state).is_err());
    }

    #[test]
    fn ledger_check_catches_lost_and_duplicated_terminals() {
        exactly_once(&[1, 1, 1]).unwrap();
        assert!(exactly_once(&[1, 0, 1]).is_err());
        assert!(exactly_once(&[1, 2, 1]).is_err());
    }
}
