//! Admission control: deterministic token-bucket rate limiting,
//! bounded per-node run queues, backpressure, and SLO-aware shedding.
//!
//! The policy is pure data plus a pure decision function — no clocks,
//! no RNG state — so two runs with the same arrival sequence make
//! byte-identical decisions. Rate limiting uses a **fixed-window token
//! bucket**: each window of [`AdmissionPolicy::window`] holds
//! [`AdmissionPolicy::rate_per_window`] tokens and unused tokens do
//! *not* roll over. An over-rate task is pushed to the first window
//! with a free token (backpressure: its arrival is delayed to that
//! window's start) or shed with reason `"rate_limit"` when the
//! required delay exceeds [`AdmissionPolicy::max_delay`].
//!
//! The fixed-window shape is chosen over a continuous (GCRA-style)
//! bucket because it is provably **monotone**: raising
//! `rate_per_window` can only move each task to the same or an earlier
//! window, so the admitted set under a higher rate is a superset of
//! the admitted set under a lower one — a property the admission
//! property tests assert. A continuous bucket whose state advances by
//! a rate-dependent stride does not satisfy this (a faster drain can
//! reorder which arrival hits the full bucket).
//!
//! Tasks whose [`priority`](crate::task::TaskInstance::priority) is at
//! or above [`AdmissionPolicy::protect_priority`] bypass both the rate
//! limiter and the queue bound: high-QoS traffic is never shed to
//! protect it from low-QoS overload, only the other way around.

use std::collections::BTreeMap;

use crate::retry::mix;
use crate::task::TaskInstance;
use crate::time::{SimDuration, SimTime};

/// Typed shed reason: the per-node run queue is at its bound.
pub const SHED_QUEUE_FULL: &str = "queue_full";
/// Typed shed reason: the token bucket could not place the task within
/// [`AdmissionPolicy::max_delay`].
pub const SHED_RATE_LIMIT: &str = "rate_limit";
/// Typed shed reason: the estimated completion instant already sits
/// past the task's deadline, so running it would waste capacity.
pub const SHED_SLO_HOPELESS: &str = "slo_hopeless";

/// Admission behaviour applied to every task a
/// [`crate::engine::SimCore`] dispatches while the policy is installed
/// (`admission: None` keeps the legacy unconditional-dispatch path
/// byte-identical).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionPolicy {
    /// Tokens per window. `u32::MAX` disables rate limiting.
    pub rate_per_window: u32,
    /// Width of one token window (clamped to ≥ 1 µs).
    pub window: SimDuration,
    /// Maximum backpressure delay: a task whose first free window
    /// starts later than `now + max_delay` is shed with
    /// [`SHED_RATE_LIMIT`] instead of queued.
    pub max_delay: SimDuration,
    /// Per-node run-queue bound (running + queued tasks). A task
    /// targeting a node at or above the bound is shed with
    /// [`SHED_QUEUE_FULL`]. `u32::MAX` disables the bound.
    pub max_queue_depth: u32,
    /// When `true`, deadline-carrying tasks whose estimated completion
    /// (node backlog + service time) already exceeds the deadline are
    /// shed with [`SHED_SLO_HOPELESS`].
    pub slo_check: bool,
    /// Tasks with `priority >= protect_priority` bypass every shed
    /// path. The default of 1 subjects only priority-0 (best-effort)
    /// traffic to admission control.
    pub protect_priority: u8,
    /// Jitter amplitude applied to non-zero backpressure delays as a
    /// fraction of one window, in `[0, 1]`; the draw is deterministic
    /// per `(seed, task id)` so it cannot affect which tasks are
    /// admitted, only how a delayed batch spreads inside its window.
    pub jitter_frac: f64,
    /// Seed for the jitter hash.
    pub seed: u64,
}

impl Default for AdmissionPolicy {
    fn default() -> Self {
        AdmissionPolicy {
            rate_per_window: u32::MAX,
            window: SimDuration::from_millis(100),
            max_delay: SimDuration::from_millis(200),
            max_queue_depth: u32::MAX,
            slo_check: false,
            protect_priority: 1,
            jitter_frac: 0.0,
            seed: 7,
        }
    }
}

/// Mutable token-bucket state owned by the simulator core: tokens
/// consumed per window index. Windows strictly before the current one
/// are pruned on every decision, so the map stays small.
/// `Clone` lets the `mc` model checker carry paired token-bucket
/// states (e.g. the same arrival stream under two rates) as explicit
/// model states.
#[derive(Debug, Default, Clone)]
pub struct AdmissionState {
    window_used: BTreeMap<u64, u32>,
}

impl AdmissionState {
    /// Tokens consumed per retained window, sorted by window index.
    /// Observability for tests and the model checker's fingerprints.
    pub fn used_windows(&self) -> Vec<(u64, u32)> {
        self.window_used.iter().map(|(w, u)| (*w, *u)).collect()
    }

    /// Drops the windows before `w_now`, which no decision at or after
    /// it can consult, in place: the map keeps its allocation instead
    /// of being rebuilt on every decision.
    fn prune_before(&mut self, w_now: u64) {
        while let Some(oldest) = self.window_used.first_entry() {
            if *oldest.key() >= w_now {
                break;
            }
            oldest.remove();
        }
    }
}

/// Outcome of one admission decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionDecision {
    /// Dispatch the task, delaying its arrival by `delay`
    /// ([`SimDuration::ZERO`] for the fast path).
    Admit {
        /// Backpressure delay added to the arrival instant.
        delay: SimDuration,
    },
    /// Drop the task with a typed reason; it is terminal (no arrival,
    /// no retry) and the driver is notified via
    /// [`crate::engine::SimEvent::TaskShed`].
    Shed {
        /// One of [`SHED_QUEUE_FULL`], [`SHED_RATE_LIMIT`],
        /// [`SHED_SLO_HOPELESS`].
        reason: &'static str,
    },
}

/// Whether the seeded off-by-one protection bug is armed: the boundary
/// class `priority == protect_priority` loses its shed exemption.
/// Compiled out of release builds; off by default even in test builds.
fn mutation_strict_protect() -> bool {
    #[cfg(any(test, feature = "mc-mutations"))]
    {
        crate::mutation::admission_strict_protect()
    }
    #[cfg(not(any(test, feature = "mc-mutations")))]
    {
        false
    }
}

impl AdmissionPolicy {
    fn window_us(&self) -> u64 {
        self.window.as_micros().max(1)
    }

    /// Deterministic jitter draw in `[0, 1)` for one task.
    fn jitter_unit(&self, task_raw: u64) -> f64 {
        let h = mix(self.seed ^ mix(task_raw));
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Decides the fate of one task submitted at `now` towards a node
    /// whose run queue currently holds `queue_depth` tasks (running +
    /// queued) and whose estimated completion instant for this task is
    /// `est_completion` (`None` when the node cannot estimate, e.g.
    /// speed 0). Consumes a token from `state` only when admitting
    /// through the rate limiter.
    pub fn decide(
        &self,
        now: SimTime,
        task: &TaskInstance,
        queue_depth: u32,
        est_completion: Option<SimTime>,
        state: &mut AdmissionState,
    ) -> AdmissionDecision {
        let protected = if mutation_strict_protect() {
            task.priority > self.protect_priority
        } else {
            task.priority >= self.protect_priority
        };
        if protected {
            return AdmissionDecision::Admit { delay: SimDuration::ZERO };
        }
        if self.max_queue_depth != u32::MAX && queue_depth >= self.max_queue_depth {
            return AdmissionDecision::Shed { reason: SHED_QUEUE_FULL };
        }
        if self.slo_check {
            if let (Some(deadline), Some(est)) = (task.deadline, est_completion) {
                if est > deadline {
                    return AdmissionDecision::Shed { reason: SHED_SLO_HOPELESS };
                }
            }
        }
        if self.rate_per_window == u32::MAX {
            return AdmissionDecision::Admit { delay: SimDuration::ZERO };
        }
        let w_us = self.window_us();
        let now_us = now.as_micros();
        let w_now = now_us / w_us;
        // A rate of 0 has no free window anywhere, so the loop below
        // always sheds.
        state.prune_before(w_now);
        let rate = self.rate_per_window;
        let last_window = (now_us + self.max_delay.as_micros()) / w_us;
        for w in w_now..=last_window {
            if state.window_used.get(&w).copied().unwrap_or(0) < rate {
                let start_us = w * w_us;
                let mut delay_us = start_us.saturating_sub(now_us);
                if delay_us > self.max_delay.as_micros() {
                    break;
                }
                *state.window_used.entry(w).or_insert(0) += 1;
                if delay_us > 0 {
                    let frac = self.jitter_frac.clamp(0.0, 1.0);
                    let jitter =
                        (frac * self.jitter_unit(task.id.as_raw()) * w_us as f64).round() as u64;
                    delay_us = delay_us.saturating_add(jitter);
                }
                return AdmissionDecision::Admit { delay: SimDuration::from_micros(delay_us) };
            }
        }
        AdmissionDecision::Shed { reason: SHED_RATE_LIMIT }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::TaskId;

    fn task(raw: u64) -> TaskInstance {
        TaskInstance::new(TaskId::from_raw(raw), 1.0)
    }

    fn limited(rate: u32) -> AdmissionPolicy {
        AdmissionPolicy {
            rate_per_window: rate,
            window: SimDuration::from_millis(10),
            max_delay: SimDuration::from_millis(20),
            ..AdmissionPolicy::default()
        }
    }

    #[test]
    fn unlimited_policy_admits_immediately() {
        let p = AdmissionPolicy::default();
        let mut st = AdmissionState::default();
        for i in 0..100 {
            let d = p.decide(SimTime::ZERO, &task(i), 0, None, &mut st);
            assert_eq!(d, AdmissionDecision::Admit { delay: SimDuration::ZERO });
        }
    }

    #[test]
    fn over_rate_tasks_spill_to_later_windows_then_shed() {
        // 2 tokens per 10 ms window, at most 20 ms of backpressure:
        // 6 tokens available (windows 0, 1, 2), the 7th arrival sheds.
        let p = limited(2);
        let mut st = AdmissionState::default();
        let mut delays = Vec::new();
        for i in 0..7 {
            match p.decide(SimTime::ZERO, &task(i), 0, None, &mut st) {
                AdmissionDecision::Admit { delay } => delays.push(delay.as_micros()),
                AdmissionDecision::Shed { reason } => {
                    assert_eq!(reason, SHED_RATE_LIMIT);
                    assert_eq!(i, 6, "only the 7th arrival sheds");
                }
            }
        }
        assert_eq!(delays, vec![0, 0, 10_000, 10_000, 20_000, 20_000]);
    }

    #[test]
    fn shedding_does_not_consume_tokens() {
        let p = AdmissionPolicy { max_delay: SimDuration::ZERO, ..limited(1) };
        let mut st = AdmissionState::default();
        assert!(matches!(
            p.decide(SimTime::ZERO, &task(1), 0, None, &mut st),
            AdmissionDecision::Admit { .. }
        ));
        // Second and third both shed — and neither eats the (absent)
        // token of a later window.
        for i in 2..4 {
            assert_eq!(
                p.decide(SimTime::ZERO, &task(i), 0, None, &mut st),
                AdmissionDecision::Shed { reason: SHED_RATE_LIMIT }
            );
        }
        // Next window has its full budget again.
        let later = SimTime::from_millis(10);
        assert_eq!(
            p.decide(later, &task(4), 0, None, &mut st),
            AdmissionDecision::Admit { delay: SimDuration::ZERO }
        );
    }

    #[test]
    fn queue_bound_sheds_with_typed_reason() {
        let p = AdmissionPolicy { max_queue_depth: 4, ..AdmissionPolicy::default() };
        let mut st = AdmissionState::default();
        assert!(matches!(
            p.decide(SimTime::ZERO, &task(1), 3, None, &mut st),
            AdmissionDecision::Admit { .. }
        ));
        assert_eq!(
            p.decide(SimTime::ZERO, &task(2), 4, None, &mut st),
            AdmissionDecision::Shed { reason: SHED_QUEUE_FULL }
        );
    }

    #[test]
    fn slo_hopeless_requires_opt_in_deadline_and_late_estimate() {
        let mut st = AdmissionState::default();
        let off = AdmissionPolicy::default();
        let on = AdmissionPolicy { slo_check: true, ..off };
        let dl = task(1).with_deadline(SimTime::from_millis(5));
        let late = Some(SimTime::from_millis(6));
        let fine = Some(SimTime::from_millis(4));
        assert!(matches!(
            off.decide(SimTime::ZERO, &dl, 0, late, &mut st),
            AdmissionDecision::Admit { .. }
        ));
        assert_eq!(
            on.decide(SimTime::ZERO, &dl, 0, late, &mut st),
            AdmissionDecision::Shed { reason: SHED_SLO_HOPELESS }
        );
        assert!(matches!(
            on.decide(SimTime::ZERO, &dl, 0, fine, &mut st),
            AdmissionDecision::Admit { .. }
        ));
        // No deadline or no estimate: never hopeless.
        assert!(matches!(
            on.decide(SimTime::ZERO, &task(2), 0, late, &mut st),
            AdmissionDecision::Admit { .. }
        ));
        assert!(matches!(
            on.decide(SimTime::ZERO, &dl, 0, None, &mut st),
            AdmissionDecision::Admit { .. }
        ));
    }

    #[test]
    fn protected_priority_bypasses_every_shed_path() {
        let p = AdmissionPolicy {
            max_queue_depth: 0,
            slo_check: true,
            max_delay: SimDuration::ZERO,
            ..limited(0)
        };
        let mut st = AdmissionState::default();
        let vip = task(1).with_priority(1).with_deadline(SimTime::ZERO);
        assert_eq!(
            p.decide(SimTime::from_secs(1), &vip, 1000, Some(SimTime::from_secs(9)), &mut st),
            AdmissionDecision::Admit { delay: SimDuration::ZERO }
        );
    }

    #[test]
    fn protected_boundary_class_admits_at_exactly_full_queue() {
        // The protection boundary is `>=`: a task whose priority equals
        // `protect_priority` exactly (not just exceeds it) must bypass
        // the queue bound even when the queue sits exactly at the
        // bound — the off-by-one the seeded `strict_protect` mutation
        // reintroduces.
        let p = AdmissionPolicy {
            max_queue_depth: 4,
            protect_priority: 1,
            ..AdmissionPolicy::default()
        };
        let mut st = AdmissionState::default();
        let boundary = task(1).with_priority(1);
        assert_eq!(
            p.decide(SimTime::ZERO, &boundary, 4, None, &mut st),
            AdmissionDecision::Admit { delay: SimDuration::ZERO },
            "priority == protect_priority admits at queue_depth == max_queue_depth"
        );
        // One below the bound is the last depth best-effort traffic may
        // enter; at the bound it sheds.
        assert!(matches!(
            p.decide(SimTime::ZERO, &task(2), 3, None, &mut st),
            AdmissionDecision::Admit { .. }
        ));
        assert_eq!(
            p.decide(SimTime::ZERO, &task(3), 4, None, &mut st),
            AdmissionDecision::Shed { reason: SHED_QUEUE_FULL }
        );
    }

    #[test]
    fn token_bucket_boundary_at_window_rollover() {
        // Windows are half-open `[w·W, (w+1)·W)`: the last microsecond
        // of a window still draws from that window's budget, and the
        // very first microsecond of the next window gets a fresh one.
        let p = limited(1); // 1 token per 10 ms window
        let mut st = AdmissionState::default();
        let last_us = SimTime::from_micros(9_999);
        assert_eq!(
            p.decide(last_us, &task(1), 0, None, &mut st),
            AdmissionDecision::Admit { delay: SimDuration::ZERO },
            "last microsecond of window 0 uses window 0's token"
        );
        // Window 0 is now dry: a second arrival in the same microsecond
        // is backpressured to *exactly* the rollover instant, 1 µs away.
        assert_eq!(
            p.decide(last_us, &task(2), 0, None, &mut st),
            AdmissionDecision::Admit { delay: SimDuration::from_micros(1) },
            "spill lands on the first microsecond of the next window"
        );
        // An arrival at exactly the rollover instant belongs to the new
        // window — whose single token the spilled task above consumed —
        // so it spills one full window further.
        assert_eq!(
            p.decide(SimTime::from_millis(10), &task(3), 0, None, &mut st),
            AdmissionDecision::Admit { delay: SimDuration::from_millis(10) },
        );
        // Crossing a rollover prunes the windows behind it.
        assert!(
            st.used_windows().iter().all(|&(w, _)| w >= 1),
            "window 0 still retained after a decision at the rollover: {:?}",
            st.used_windows()
        );
    }

    #[test]
    fn jitter_spreads_delayed_tasks_but_is_deterministic() {
        let p = AdmissionPolicy { jitter_frac: 0.5, ..limited(1) };
        let q = AdmissionPolicy { jitter_frac: 0.5, ..limited(1) };
        let run = |p: &AdmissionPolicy| -> Vec<u64> {
            let mut st = AdmissionState::default();
            (0..3)
                .map(|i| match p.decide(SimTime::ZERO, &task(i), 0, None, &mut st) {
                    AdmissionDecision::Admit { delay } => delay.as_micros(),
                    AdmissionDecision::Shed { .. } => u64::MAX,
                })
                .collect()
        };
        let a = run(&p);
        assert_eq!(a, run(&q), "same seed, same delays");
        assert_eq!(a[0], 0, "in-window admit takes no jitter");
        // Delayed tasks land inside [window_start, window_start + w/2].
        assert!(a[1] >= 10_000 && a[1] <= 15_000, "{}", a[1]);
        assert!(a[2] >= 20_000 && a[2] <= 25_000, "{}", a[2]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Pruning in place keeps exactly the windows the former
        /// `split_off(&w_now)` rebuild kept: over random arrival
        /// sequences (time steps that stay in a window, cross one or
        /// skip several; random rates and delay bounds), the state each
        /// decision starts from prunes to the same `used_windows()`
        /// both ways.
        #[test]
        fn in_place_pruning_matches_the_split_off_model(
            rate in 0u32..4,
            max_delay_ms in 0u64..40,
            steps in proptest::collection::vec(0u64..25_000, 1..300),
        ) {
            let p = AdmissionPolicy {
                max_delay: SimDuration::from_millis(max_delay_ms),
                ..limited(rate)
            };
            let w_us = p.window_us();
            let mut st = AdmissionState::default();
            let mut now_us = 0;
            for (i, step) in steps.into_iter().enumerate() {
                now_us += step;
                let w_now = now_us / w_us;
                let mut pruned = st.clone();
                pruned.prune_before(w_now);
                let mut model = st.clone();
                model.window_used = model.window_used.split_off(&w_now);
                proptest::prop_assert_eq!(pruned.used_windows(), model.used_windows());
                p.decide(SimTime::from_micros(now_us), &task(i as u64), 0, None, &mut st);
            }
        }
    }
}
