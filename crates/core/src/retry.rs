//! Retry policies with deterministic exponential backoff.
//!
//! The paper's cloud workflow runs circuits through a shared queue where
//! submissions fail transiently (devices drop out for calibration, the
//! queue hiccups). A [`RetryPolicy`] describes how the
//! [job service](crate::job) reacts: how many attempts, how long to wait
//! between them (exponential backoff with *seeded* jitter, so schedules
//! are reproducible in tests), and how long a single attempt may run
//! before the worker declares it hung.

use qukit_obs::hash::splitmix64;
use std::time::Duration;

/// How the job service retries failed attempts.
///
/// Backoff before attempt `n` (n ≥ 2) is
/// `base_backoff · backoff_factor^(n-2)`, capped at `max_backoff`, then
/// scaled by a jitter factor drawn deterministically from
/// (`jitter_seed`, `n`) in `[1-jitter, 1+jitter]`. The full schedule is
/// therefore a pure function of the policy — tests assert on
/// [`schedule`](RetryPolicy::schedule) instead of wall-clock timing.
///
/// # Examples
///
/// ```
/// use qukit::retry::RetryPolicy;
/// use std::time::Duration;
///
/// let policy = RetryPolicy::new(3)
///     .with_base_backoff(Duration::from_millis(100))
///     .with_backoff_factor(2.0)
///     .with_jitter(0.0);
/// assert_eq!(
///     policy.schedule(),
///     vec![Duration::from_millis(100), Duration::from_millis(200)]
/// );
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (1 = no retries).
    pub max_attempts: u32,
    /// Backoff before the second attempt.
    pub base_backoff: Duration,
    /// Multiplier applied per further attempt.
    pub backoff_factor: f64,
    /// Upper bound for any single backoff (pre-jitter).
    pub max_backoff: Duration,
    /// Jitter amplitude as a fraction of the backoff (`0.0..=1.0`).
    pub jitter: f64,
    /// Seed for the deterministic jitter stream.
    pub jitter_seed: u64,
    /// Wall-clock budget for one attempt; `None` = unlimited.
    pub attempt_timeout: Option<Duration>,
}

impl Default for RetryPolicy {
    /// Three attempts, 100 ms base backoff doubling per attempt, capped
    /// at 5 s, ±10 % jitter, no per-attempt timeout.
    fn default() -> Self {
        Self {
            max_attempts: 3,
            base_backoff: Duration::from_millis(100),
            backoff_factor: 2.0,
            max_backoff: Duration::from_secs(5),
            jitter: 0.1,
            jitter_seed: 0,
            attempt_timeout: None,
        }
    }
}

impl RetryPolicy {
    /// A policy with `max_attempts` total attempts and default backoff.
    pub fn new(max_attempts: u32) -> Self {
        Self { max_attempts: max_attempts.max(1), ..Self::default() }
    }

    /// A single-attempt policy (no retries, no backoff).
    pub fn none() -> Self {
        Self::new(1)
    }

    /// Sets the backoff before the second attempt (builder style).
    pub fn with_base_backoff(mut self, base: Duration) -> Self {
        self.base_backoff = base;
        self
    }

    /// Sets the per-attempt backoff multiplier (builder style).
    pub fn with_backoff_factor(mut self, factor: f64) -> Self {
        self.backoff_factor = factor.max(1.0);
        self
    }

    /// Sets the backoff upper bound (builder style).
    pub fn with_max_backoff(mut self, max: Duration) -> Self {
        self.max_backoff = max;
        self
    }

    /// Sets the jitter amplitude (clamped to `0.0..=1.0`, builder style).
    pub fn with_jitter(mut self, jitter: f64) -> Self {
        self.jitter = jitter.clamp(0.0, 1.0);
        self
    }

    /// Sets the jitter seed (builder style).
    pub fn with_jitter_seed(mut self, seed: u64) -> Self {
        self.jitter_seed = seed;
        self
    }

    /// Sets the per-attempt timeout (builder style).
    pub fn with_attempt_timeout(mut self, timeout: Duration) -> Self {
        self.attempt_timeout = Some(timeout);
        self
    }

    /// The backoff to wait before attempt `attempt` (2-based: the first
    /// attempt has no backoff and returns zero).
    pub fn backoff_before(&self, attempt: u32) -> Duration {
        if attempt < 2 {
            return Duration::ZERO;
        }
        let exponent = (attempt - 2) as i32;
        let raw = self.base_backoff.as_secs_f64() * self.backoff_factor.powi(exponent);
        let capped = raw.min(self.max_backoff.as_secs_f64());
        // Deterministic jitter in [1-j, 1+j] from (seed, attempt).
        let mut state = self.jitter_seed ^ u64::from(attempt);
        let unit = splitmix64(&mut state) as f64 / (u64::MAX as f64 + 1.0);
        let factor = 1.0 + self.jitter * (2.0 * unit - 1.0);
        Duration::from_secs_f64((capped * factor).max(0.0))
    }

    /// The full backoff schedule: one entry per retry (length
    /// `max_attempts - 1`).
    pub fn schedule(&self) -> Vec<Duration> {
        (2..=self.max_attempts).map(|a| self.backoff_before(a)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jitterless_schedule_is_exact_exponential() {
        let policy = RetryPolicy::new(5)
            .with_base_backoff(Duration::from_millis(10))
            .with_backoff_factor(3.0)
            .with_jitter(0.0);
        assert_eq!(
            policy.schedule(),
            vec![
                Duration::from_millis(10),
                Duration::from_millis(30),
                Duration::from_millis(90),
                Duration::from_millis(270),
            ]
        );
        assert_eq!(policy.backoff_before(1), Duration::ZERO);
    }

    #[test]
    fn backoff_is_capped() {
        let policy = RetryPolicy::new(10)
            .with_base_backoff(Duration::from_millis(100))
            .with_backoff_factor(10.0)
            .with_max_backoff(Duration::from_millis(250))
            .with_jitter(0.0);
        let schedule = policy.schedule();
        assert_eq!(schedule[0], Duration::from_millis(100));
        assert!(schedule[2..].iter().all(|&d| d == Duration::from_millis(250)));
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let policy = RetryPolicy::new(6)
            .with_base_backoff(Duration::from_millis(100))
            .with_backoff_factor(1.0)
            .with_jitter(0.2)
            .with_jitter_seed(7);
        let a = policy.schedule();
        let b = policy.schedule();
        assert_eq!(a, b, "same seed, same schedule");
        for d in &a {
            let ms = d.as_secs_f64() * 1e3;
            assert!((80.0..=120.0).contains(&ms), "jittered backoff {ms} ms out of ±20 %");
        }
        let other = policy.with_jitter_seed(8).schedule();
        assert_ne!(a, other, "different seed, different schedule");
    }

    #[test]
    fn single_attempt_policy_has_empty_schedule() {
        assert!(RetryPolicy::none().schedule().is_empty());
        // max_attempts is floored at 1.
        assert_eq!(RetryPolicy::new(0).max_attempts, 1);
    }
}
