//! Node Manager.
//!
//! "A Node Manager will put in place directives coming from the WL
//! Manager … and, depending on the optimization goal, it will select the
//! configuration for HW acceleration that is most suitable" (paper
//! Sect. VI). Concretely: per-node DVFS operating-point selection that
//! trades energy for deadline compliance, informed by an online-learned
//! latency model (the per-agent half of the FL story), plus
//! accelerator-region prewarm recommendations.

use myrtus_continuum::engine::{SimCore, SimError};
use myrtus_continuum::ids::NodeId;
use myrtus_obs::hash::WordMap;

use crate::fl::{LatencyModel, LocalLearner};

/// Sliding per-node health counters between two adaptation rounds.
#[derive(Debug, Clone, Copy, Default)]
struct Window {
    completed: u32,
    misses: u32,
    sum_work_mc: f64,
    sum_input_kib: f64,
}

/// Per-node operating-point controller.
#[derive(Debug)]
pub struct NodeManager {
    windows: WordMap<NodeId, Window>,
    learners: WordMap<NodeId, LocalLearner>,
    switches: u64,
    /// Utilization below which a node may drop to a slower point.
    pub eco_threshold: f64,
    /// Utilization above which a node boosts if possible.
    pub boost_threshold: f64,
    /// FL-in-the-loop guard: when set, a node only drops to eco if its
    /// learned latency model predicts the *typical recent task* would
    /// still finish within this bound at the eco speed. `None` disables
    /// the guard (threshold-only policy).
    pub eco_latency_guard_us: Option<f64>,
}

impl NodeManager {
    /// Creates a manager with the default thresholds (eco below 0.25,
    /// boost above 0.75 utilization).
    pub fn new() -> Self {
        NodeManager {
            windows: WordMap::default(),
            learners: WordMap::default(),
            switches: 0,
            eco_threshold: 0.25,
            boost_threshold: 0.75,
            eco_latency_guard_us: None,
        }
    }

    /// Operating-point switches performed so far.
    pub fn switches(&self) -> u64 {
        self.switches
    }

    /// Records a completed stage on a node (deadline met or not), also
    /// feeding the node's latency learner.
    pub fn record_completion(
        &mut self,
        node: NodeId,
        work_mc: f64,
        input_bytes: u64,
        speed_mc_per_us: f64,
        latency_us: f64,
        deadline_met: bool,
    ) {
        let w = self.windows.entry(node).or_default();
        w.completed += 1;
        if !deadline_met {
            w.misses += 1;
        }
        w.sum_work_mc += work_mc;
        w.sum_input_kib += input_bytes as f64 / 1024.0;
        self.learners.entry(node).or_default().observe(
            LatencyModel::features(work_mc, input_bytes as f64 / 1024.0, speed_mc_per_us),
            latency_us,
        );
    }

    /// The learner trained from this node's observations (the model an
    /// edge agent would contribute to federation).
    pub fn learner(&self, node: NodeId) -> Option<&LocalLearner> {
        self.learners.get(&node)
    }

    /// One adaptation round: walks every node and switches operating
    /// points — boost on recent deadline misses or high utilization,
    /// eco on sustained idleness. Returns `(node, new_point)` decisions.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors from the switch itself.
    pub fn adapt(&mut self, sim: &mut SimCore) -> Result<Vec<(NodeId, usize)>, SimError> {
        let mut decisions = Vec::new();
        let nodes: Vec<NodeId> = sim.nodes().iter().map(|n| n.id()).collect();
        for id in nodes {
            let Some(state) = sim.node(id) else { continue };
            if !state.is_up() || state.spec().points().len() < 2 {
                self.windows.remove(&id);
                continue;
            }
            let current = state.point_idx();
            let util = state.utilization();
            let queue = state.queue_len();
            let w = self.windows.remove(&id).unwrap_or_default();

            // Fastest and slowest point indices by frequency scale.
            let points = state.spec().points();
            let fastest = (0..points.len())
                .max_by(|&a, &b| {
                    points
                        .point(a)
                        .freq_scale()
                        .partial_cmp(&points.point(b).freq_scale())
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .expect("non-empty");
            let slowest = (0..points.len())
                .min_by(|&a, &b| {
                    points
                        .point(a)
                        .freq_scale()
                        .partial_cmp(&points.point(b).freq_scale())
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .expect("non-empty");

            let target = if w.misses > 0 || util >= self.boost_threshold || queue > 0 {
                fastest
            } else if util <= self.eco_threshold {
                // FL-in-the-loop: before dropping the clock, ask the
                // node's learned latency model whether the typical recent
                // task would still fit within the guard at eco speed.
                let guard_ok = match (self.eco_latency_guard_us, w.completed) {
                    (Some(guard), done) if done > 0 => {
                        let eco_speed =
                            state.spec().speed_mhz() * points.point(slowest).freq_scale() / 1e6;
                        let model = self
                            .learners
                            .get(&id)
                            .filter(|l| l.sample_count() >= 10)
                            .map(|l| l.fit(1e-6));
                        match model {
                            Some(m) => {
                                let x = LatencyModel::features(
                                    w.sum_work_mc / done as f64,
                                    w.sum_input_kib / done as f64,
                                    eco_speed,
                                );
                                m.predict(&x) <= guard
                            }
                            // No usable model yet: stay conservative.
                            None => false,
                        }
                    }
                    _ => true,
                };
                if guard_ok {
                    slowest
                } else {
                    current
                }
            } else {
                current
            };
            if target != current {
                sim.switch_operating_point(id, target)?;
                self.switches += 1;
                decisions.push((id, target));
            }
        }
        Ok(decisions)
    }
}

impl Default for NodeManager {
    fn default() -> Self {
        NodeManager::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use myrtus_continuum::engine::NullDriver;
    use myrtus_continuum::node::NodeSpec;
    use myrtus_continuum::task::TaskInstance;
    use myrtus_continuum::time::SimTime;

    #[test]
    fn idle_node_drops_to_eco() {
        let mut sim = SimCore::new();
        let n = sim.add_node(NodeSpec::preset_edge_multicore("n")); // eco = idx 1
        sim.run_until(SimTime::from_secs(1), &mut NullDriver);
        let mut mgr = NodeManager::new();
        let decisions = mgr.adapt(&mut sim).expect("ok");
        assert_eq!(decisions, vec![(n, 1)]);
        assert_eq!(sim.node(n).expect("exists").point_idx(), 1);
        assert_eq!(mgr.switches(), 1);
    }

    #[test]
    fn deadline_misses_force_boost() {
        let mut sim = SimCore::new();
        let n = sim.add_node(NodeSpec::preset_edge_multicore("n"));
        sim.switch_operating_point(n, 1).expect("eco exists");
        let mut mgr = NodeManager::new();
        mgr.record_completion(n, 10.0, 0, 1.5e-3, 9_000.0, false);
        let decisions = mgr.adapt(&mut sim).expect("ok");
        assert_eq!(decisions, vec![(n, 0)], "misses boost back to nominal");
    }

    #[test]
    fn busy_node_stays_or_boosts() {
        let mut sim = SimCore::new();
        let n = sim.add_node(NodeSpec::preset_edge_multicore("n"));
        // Saturate all four cores with long tasks.
        for _ in 0..6 {
            let t = TaskInstance::new(sim.fresh_task_id(), 10_000.0);
            sim.submit_local(n, t).expect("submit");
        }
        sim.run_until(SimTime::from_millis(1), &mut NullDriver);
        let mut mgr = NodeManager::new();
        mgr.adapt(&mut sim).expect("ok");
        assert_eq!(sim.node(n).expect("exists").point_idx(), 0, "stays at nominal/fastest");
    }

    #[test]
    fn single_point_nodes_are_skipped() {
        let mut sim = SimCore::new();
        sim.add_node(NodeSpec::preset_cloud_server("dc")); // single point
        sim.run_until(SimTime::from_secs(1), &mut NullDriver);
        let mut mgr = NodeManager::new();
        assert!(mgr.adapt(&mut sim).expect("ok").is_empty());
    }

    #[test]
    fn window_resets_each_round() {
        let mut sim = SimCore::new();
        let n = sim.add_node(NodeSpec::preset_edge_multicore("n"));
        let mut mgr = NodeManager::new();
        mgr.record_completion(n, 1.0, 0, 1.5e-3, 100.0, false);
        mgr.adapt(&mut sim).expect("ok"); // consumes the miss → stays fast
        assert_eq!(sim.node(n).expect("exists").point_idx(), 0);
        // Next round with no misses and idle → eco.
        let d = mgr.adapt(&mut sim).expect("ok");
        assert_eq!(d, vec![(n, 1)]);
    }

    #[test]
    fn completions_feed_the_learner() {
        let mut mgr = NodeManager::new();
        let n = NodeId::from_raw(0);
        for i in 0..10 {
            mgr.record_completion(n, i as f64, 1024, 1.5e-3, 100.0 * i as f64, true);
        }
        assert_eq!(mgr.learner(n).map(|l| l.sample_count()), Some(10));
        assert!(mgr.learner(NodeId::from_raw(9)).is_none());
    }

    #[test]
    fn eco_guard_blocks_risky_downclocking() {
        let mut sim = SimCore::new();
        let n = sim.add_node(NodeSpec::preset_edge_multicore("n")); // eco = 0.6x
        sim.run_until(SimTime::from_secs(1), &mut NullDriver);
        let mut mgr = NodeManager::new();
        // Teach the model that recent tasks take ~100 ms at nominal speed
        // (150 Mc at 1.5e-3 mc/µs), so eco would take ~167 ms.
        for _ in 0..20 {
            mgr.record_completion(n, 150.0, 0, 1.5e-3, 100_000.0, true);
        }
        // Guard at 120 ms: eco (≈167 ms predicted) must be blocked.
        mgr.eco_latency_guard_us = Some(120_000.0);
        let d = mgr.adapt(&mut sim).expect("ok");
        assert!(d.is_empty(), "guard blocks the drop: {d:?}");
        assert_eq!(sim.node(n).expect("exists").point_idx(), 0);
        // Generous guard at 300 ms: eco is allowed.
        for _ in 0..20 {
            mgr.record_completion(n, 150.0, 0, 1.5e-3, 100_000.0, true);
        }
        mgr.eco_latency_guard_us = Some(300_000.0);
        let d = mgr.adapt(&mut sim).expect("ok");
        assert_eq!(d, vec![(n, 1)], "generous guard admits eco");
    }

    #[test]
    fn eco_guard_is_conservative_without_a_model() {
        let mut sim = SimCore::new();
        let n = sim.add_node(NodeSpec::preset_edge_multicore("n"));
        sim.run_until(SimTime::from_secs(1), &mut NullDriver);
        let mut mgr = NodeManager::new();
        mgr.eco_latency_guard_us = Some(1e9);
        // Two samples only: below the 10-sample floor → no drop.
        mgr.record_completion(n, 1.0, 0, 1.5e-3, 700.0, true);
        mgr.record_completion(n, 1.0, 0, 1.5e-3, 700.0, true);
        assert!(mgr.adapt(&mut sim).expect("ok").is_empty());
        let _ = n;
    }
}
