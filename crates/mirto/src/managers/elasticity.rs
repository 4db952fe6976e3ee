//! The Elasticity Manager: MAPE-driven horizontal pod autoscaling.
//!
//! Every monitoring round the engine feeds the manager one
//! [`StageSignals`] snapshot per deployed component, read from the
//! Knowledge Base history that round's monitor phase just ingested
//! (host utilization, host run-queue depth, windowed deadline-miss
//! rate). Observability never feeds it, so turning obs on or off does
//! not change a scaling decision. The manager answers with at most one
//! [`ScaleAction`] per component, which the engine executes through the
//! [`crate::deployer::DeploymentProxy`] replica API.
//!
//! Two mechanisms keep the controller from flapping:
//!
//! * **Hysteresis** — the scale-up utilization threshold sits strictly
//!   above the scale-down threshold, so no single utilization value can
//!   trigger both directions;
//! * **Cooldown** — after any action a component is frozen for
//!   [`ElasticityConfig::cooldown_rounds`] monitoring rounds (clamped
//!   to ≥ 1), so a scale-up is never followed by a scale-down (or vice
//!   versa) within the cooldown window. The autoscaler property tests
//!   assert this over arbitrary signal sequences.
//!
//! The decision function is pure with respect to the signals — KB
//! series in, action out — so two runs over the same telemetry make
//! identical scaling decisions.

use myrtus_obs::hash::WordMap;

/// Autoscaling thresholds and pacing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ElasticityConfig {
    /// Scale up when the hosting node's utilization reaches this
    /// (must sit above `scale_down_utilization` for hysteresis).
    pub scale_up_utilization: f64,
    /// Scale down only when utilization has fallen to this or below.
    pub scale_down_utilization: f64,
    /// Scale up when the hosting node's run-queue depth (running +
    /// queued) reaches this, regardless of utilization.
    pub scale_up_queue: f64,
    /// Scale up when the windowed deadline-miss rate reaches this.
    pub scale_up_miss_rate: f64,
    /// Scale down only when the run-queue depth is at or below this.
    pub scale_down_queue: f64,
    /// Monitoring rounds a component is frozen after any action
    /// (clamped to ≥ 1 so actions can never flap round-to-round).
    pub cooldown_rounds: u32,
    /// Replica ceiling per component (excluding the primary pod).
    pub max_replicas: u32,
}

impl Default for ElasticityConfig {
    fn default() -> Self {
        ElasticityConfig {
            scale_up_utilization: 0.8,
            scale_down_utilization: 0.25,
            scale_up_queue: 8.0,
            scale_up_miss_rate: 0.2,
            scale_down_queue: 1.0,
            cooldown_rounds: 3,
            max_replicas: 3,
        }
    }
}

/// One scaling decision for a component.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleAction {
    /// Bind one more replica.
    ScaleUp,
    /// Evict the newest replica.
    ScaleDown,
}

/// Telemetry snapshot for one component, read from the KB history at
/// the current monitoring round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageSignals {
    /// Hosting node's utilization: the engine passes the peak of its
    /// last three `{name}/util` KB samples.
    pub utilization: f64,
    /// Hosting node's run-queue depth (running + queued): the peak of
    /// its last three `{name}/depth` KB samples.
    pub queue_depth: f64,
    /// Latest KB `deadline_miss_rate` sample: engine-wide misses over
    /// completions since the previous monitoring round.
    pub miss_rate: f64,
    /// Current replica count of the component (excluding the primary).
    pub replicas: u32,
}

/// Per-component autoscaler with hysteresis and cooldown state.
#[derive(Debug)]
pub struct ElasticityManager {
    cfg: ElasticityConfig,
    /// Rounds left before a component may act again.
    cooldown: WordMap<(u16, usize), u32>,
}

impl ElasticityManager {
    /// A manager with the given thresholds.
    pub fn new(cfg: ElasticityConfig) -> Self {
        ElasticityManager { cfg, cooldown: WordMap::default() }
    }

    /// The installed configuration.
    pub fn config(&self) -> ElasticityConfig {
        self.cfg
    }

    /// Decides the action for one component this round. Call exactly
    /// once per component per monitoring round: the call also ticks the
    /// component's cooldown.
    pub fn decide(&mut self, key: (u16, usize), s: &StageSignals) -> Option<ScaleAction> {
        if let Some(left) = self.cooldown.get_mut(&key) {
            *left -= 1;
            if *left == 0 {
                self.cooldown.remove(&key);
            } else {
                return None;
            }
            return None;
        }
        let cfg = &self.cfg;
        let pressure = s.utilization >= cfg.scale_up_utilization
            || s.queue_depth >= cfg.scale_up_queue
            || s.miss_rate >= cfg.scale_up_miss_rate;
        let idle = s.utilization <= cfg.scale_down_utilization
            && s.queue_depth <= cfg.scale_down_queue
            && s.miss_rate < cfg.scale_up_miss_rate;
        let action = if pressure && s.replicas < cfg.max_replicas {
            Some(ScaleAction::ScaleUp)
        } else if idle && s.replicas > 0 {
            Some(ScaleAction::ScaleDown)
        } else {
            None
        };
        if action.is_some() {
            self.cooldown.insert(key, cfg.cooldown_rounds.max(1));
        }
        action
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hot() -> StageSignals {
        StageSignals { utilization: 1.0, queue_depth: 12.0, miss_rate: 0.5, replicas: 0 }
    }

    fn cold(replicas: u32) -> StageSignals {
        StageSignals { utilization: 0.0, queue_depth: 0.0, miss_rate: 0.0, replicas }
    }

    #[test]
    fn pressure_scales_up_and_idle_scales_down() {
        let mut m = ElasticityManager::new(ElasticityConfig {
            cooldown_rounds: 1,
            ..ElasticityConfig::default()
        });
        assert_eq!(m.decide((0, 0), &hot()), Some(ScaleAction::ScaleUp));
        // Cooldown round, then idle: scale back down.
        assert_eq!(m.decide((0, 0), &cold(1)), None);
        assert_eq!(m.decide((0, 0), &cold(1)), Some(ScaleAction::ScaleDown));
    }

    #[test]
    fn cooldown_freezes_the_component_for_n_rounds() {
        let mut m = ElasticityManager::new(ElasticityConfig {
            cooldown_rounds: 3,
            ..ElasticityConfig::default()
        });
        assert_eq!(m.decide((0, 0), &hot()), Some(ScaleAction::ScaleUp));
        for _ in 0..3 {
            assert_eq!(m.decide((0, 0), &cold(1)), None, "frozen during cooldown");
        }
        assert_eq!(m.decide((0, 0), &cold(1)), Some(ScaleAction::ScaleDown));
    }

    #[test]
    fn cooldown_is_per_component() {
        let mut m = ElasticityManager::new(ElasticityConfig::default());
        assert_eq!(m.decide((0, 0), &hot()), Some(ScaleAction::ScaleUp));
        assert_eq!(m.decide((0, 1), &hot()), Some(ScaleAction::ScaleUp), "other key unaffected");
    }

    #[test]
    fn replica_bounds_are_respected() {
        let mut m = ElasticityManager::new(ElasticityConfig {
            cooldown_rounds: 1,
            max_replicas: 2,
            ..ElasticityConfig::default()
        });
        let maxed = StageSignals { replicas: 2, ..hot() };
        assert_eq!(m.decide((0, 0), &maxed), None, "at the ceiling");
        assert_eq!(m.decide((0, 0), &cold(0)), None, "nothing to scale down");
    }

    #[test]
    fn hysteresis_band_takes_no_action() {
        let mut m = ElasticityManager::new(ElasticityConfig::default());
        // Utilization between the thresholds, no queue, no misses.
        let mid = StageSignals { utilization: 0.5, queue_depth: 0.0, miss_rate: 0.0, replicas: 1 };
        assert_eq!(m.decide((0, 0), &mid), None);
    }
}
