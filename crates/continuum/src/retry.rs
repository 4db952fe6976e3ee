//! Per-task retry policy: attempt limits, sim-time exponential backoff
//! with deterministic seeded jitter, and per-attempt timeouts.
//!
//! The policy is pure data plus pure functions — no clocks, no RNG
//! state. Jitter is derived from a splitmix64-style hash of
//! `(seed, task id, attempt)`, so the schedule for a given task is a
//! function of the policy alone and two runs with the same seed produce
//! byte-identical backoff sequences. The schedule is monotonic
//! non-decreasing: with `jitter_frac ≤ 1`, the smallest possible delay
//! of attempt `n + 1` (`2^n · base`) is never below the largest
//! possible delay of attempt `n` (`2^(n-1) · base · (1 + jitter)`),
//! and saturating at [`RetryPolicy::backoff_cap`] preserves that order.

use crate::time::SimDuration;

/// Retry behaviour applied to every task a [`crate::engine::SimCore`]
/// dispatches ([`RetryPolicy::NONE`] unless another is installed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts a task may consume, including the first dispatch
    /// (so `max_attempts: 3` allows two retries). Clamped to ≥ 1.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles every further attempt.
    pub base_backoff: SimDuration,
    /// Upper bound the exponential schedule saturates at.
    pub backoff_cap: SimDuration,
    /// Jitter amplitude as a fraction of the exponential delay, in
    /// `[0, 1]`; the drawn jitter multiplies the delay by
    /// `1 + frac · u` with `u ∈ [0, 1)` deterministic per
    /// `(seed, task, attempt)`.
    pub jitter_frac: f64,
    /// When set, each attempt is cancelled (node-side) and retried if
    /// it has not completed within this budget after dispatch.
    pub attempt_timeout: Option<SimDuration>,
    /// Seed for the jitter hash; two policies differing only in seed
    /// produce different (but each internally deterministic) schedules.
    pub seed: u64,
    /// Retry-storm guard: maximum number of recovery events that may be
    /// outstanding (scheduled but not yet re-dispatched) at once. When
    /// the queue is full, a failed attempt is abandoned with reason
    /// instead of snowballing more load onto an already-overloaded
    /// continuum. `u32::MAX` (the default) disables the guard.
    pub recovery_queue_cap: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: SimDuration::from_millis(20),
            backoff_cap: SimDuration::from_secs(2),
            jitter_frac: 0.2,
            attempt_timeout: None,
            seed: 7,
            recovery_queue_cap: u32::MAX,
        }
    }
}

/// splitmix64 finalizer: a cheap, high-quality 64-bit mix. Shared with
/// the admission controller so both subsystems draw jitter from the
/// same deterministic family.
pub(crate) fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl RetryPolicy {
    /// The no-retry policy: one attempt per task, so each lost or
    /// timed-out attempt ends as exactly one
    /// [`crate::engine::SimEvent::TaskAbandoned`].
    pub const NONE: RetryPolicy = RetryPolicy {
        max_attempts: 1,
        base_backoff: SimDuration::ZERO,
        backoff_cap: SimDuration::ZERO,
        jitter_frac: 0.0,
        attempt_timeout: None,
        seed: 0,
        recovery_queue_cap: u32::MAX,
    };

    /// Effective attempt ceiling (at least one).
    pub fn attempts(&self) -> u32 {
        self.max_attempts.max(1)
    }

    /// Whether a task that has already consumed `attempts_used`
    /// attempts may be retried.
    pub fn may_retry(&self, attempts_used: u32) -> bool {
        attempts_used < self.attempts()
    }

    /// Deterministic jitter draw in `[0, 1)` for one `(task, attempt)`.
    fn jitter_unit(&self, task_raw: u64, attempt: u32) -> f64 {
        let h = mix(self.seed ^ mix(task_raw) ^ mix(attempt as u64));
        // 53 mantissa bits → uniform in [0, 1).
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    /// The backoff to wait before retry number `attempt` (1-based: the
    /// first retry is attempt 1). Exponential in the attempt with a
    /// deterministic per-task jitter, saturating at the cap.
    pub fn backoff_for(&self, attempt: u32, task_raw: u64) -> SimDuration {
        let attempt = attempt.max(1);
        let frac = self.jitter_frac.clamp(0.0, 1.0);
        let exp = (attempt - 1).min(62);
        let base = self.base_backoff.as_micros().saturating_mul(1u64 << exp);
        let jitter = 1.0 + frac * self.jitter_unit(task_raw, attempt);
        let jittered = (base as f64 * jitter).round() as u64;
        SimDuration::from_micros(jittered.min(self.backoff_cap.as_micros()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_monotonic_and_capped() {
        let p = RetryPolicy::default();
        let mut prev = SimDuration::from_micros(0);
        for attempt in 1..=16 {
            let d = p.backoff_for(attempt, 42);
            assert!(d >= prev, "attempt {attempt}: {d:?} < {prev:?}");
            assert!(d <= p.backoff_cap);
            prev = d;
        }
        assert_eq!(prev, p.backoff_cap);
    }

    #[test]
    fn same_seed_is_identical_different_seed_differs() {
        let a = RetryPolicy { seed: 11, ..RetryPolicy::default() };
        let b = RetryPolicy { seed: 11, ..RetryPolicy::default() };
        let c = RetryPolicy { seed: 12, ..RetryPolicy::default() };
        let sched = |p: &RetryPolicy| -> Vec<u64> {
            (1..=6).map(|n| p.backoff_for(n, 9).as_micros()).collect()
        };
        assert_eq!(sched(&a), sched(&b));
        assert_ne!(sched(&a), sched(&c));
    }

    #[test]
    fn jitter_frac_is_clamped_and_zero_jitter_is_pure_exponential() {
        let p = RetryPolicy {
            jitter_frac: 0.0,
            base_backoff: SimDuration::from_micros(100),
            backoff_cap: SimDuration::from_secs(10),
            ..RetryPolicy::default()
        };
        assert_eq!(p.backoff_for(1, 5).as_micros(), 100);
        assert_eq!(p.backoff_for(2, 5).as_micros(), 200);
        assert_eq!(p.backoff_for(3, 5).as_micros(), 400);
        let wild = RetryPolicy { jitter_frac: 7.5, ..p };
        // Clamped to 1.0: at most double the pure exponential value.
        assert!(wild.backoff_for(1, 5).as_micros() <= 200);
    }

    #[test]
    fn attempt_accounting_respects_the_ceiling() {
        let p = RetryPolicy { max_attempts: 2, ..RetryPolicy::default() };
        assert!(p.may_retry(0));
        assert!(p.may_retry(1));
        assert!(!p.may_retry(2));
        let degenerate = RetryPolicy { max_attempts: 0, ..RetryPolicy::default() };
        assert_eq!(degenerate.attempts(), 1);
        assert!(!degenerate.may_retry(1));
    }

    #[test]
    fn huge_attempt_numbers_do_not_overflow() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff_for(200, 1), p.backoff_cap);
    }
}
