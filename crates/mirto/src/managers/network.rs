//! Network Manager.
//!
//! Optimal network usage — "reducing network congestion, while
//! guaranteeing adequate computing power" — is one of MIRTO's four
//! optimization drivers. This manager learns, per traffic flow, whether
//! to ship data over the primary (shortest) route or an alternate
//! detour, with a tabular Q-learner whose state is the congestion bucket
//! of the primary route (fed from KB telemetry).

use myrtus_continuum::engine::SimCore;
use myrtus_continuum::ids::{LinkId, NodeId};
use myrtus_continuum::time::SimDuration;
use myrtus_obs::hash::WordMap;

use crate::rl::{congestion_state, QLearner, RouteChoice};

const CONGESTION_BUCKETS: usize = 4;

/// Per-flow route decision state.
#[derive(Debug)]
struct Flow {
    learner: QLearner,
    last: Option<(usize, usize)>, // (state, action) awaiting reward
}

/// The Network Manager.
#[derive(Debug, Default)]
pub struct NetworkManager {
    flows: WordMap<(NodeId, NodeId), Flow>,
    decisions: u64,
    detours: u64,
}

impl NetworkManager {
    /// Creates a manager.
    pub fn new() -> Self {
        NetworkManager::default()
    }

    /// Total routing decisions made.
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// Decisions that took the alternate route.
    pub fn detours(&self) -> u64 {
        self.detours
    }

    fn primary_congestion(sim: &SimCore, path: &[LinkId]) -> f64 {
        // Head-of-path queueing: how far in the future the first link is
        // already booked, normalized to a 10 ms horizon.
        let now = sim.now();
        path.first()
            .and_then(|l| sim.network().link_state(*l))
            .map(|st| {
                let backlog = st.next_free().saturating_since(now);
                (backlog.as_micros() as f64 / 10_000.0).min(1.0)
            })
            .unwrap_or(0.0)
    }

    /// Chooses a route for a flow; returns the link path, or `None` when
    /// the destination is unreachable or local.
    pub fn route(&mut self, sim: &SimCore, src: NodeId, dst: NodeId) -> Option<Vec<LinkId>> {
        if src == dst {
            return Some(Vec::new());
        }
        let primary = sim.network().route(src, dst).ok()?;
        // The best route that avoids the primary's first link.
        let alternate = sim.network().route_avoiding(src, dst, &primary[..1]).ok();
        let state = congestion_state(Self::primary_congestion(sim, &primary), CONGESTION_BUCKETS);
        let flow = self.flows.entry((src, dst)).or_insert_with(|| Flow {
            learner: QLearner::new(CONGESTION_BUCKETS, 2, 0.25, 0.0, 0.3, {
                // Deterministic per-flow seed.
                (src.as_raw() as u64) << 32 | dst.as_raw() as u64
            }),
            last: None,
        });
        let action = match alternate {
            Some(_) => flow.learner.choose(state),
            None => RouteChoice::Primary.index(),
        };
        flow.last = Some((state, action));
        self.decisions += 1;
        if action == RouteChoice::Alternate.index() {
            self.detours += 1;
            alternate
        } else {
            Some(primary)
        }
    }

    /// Rewards the last decision of a flow with the observed delivery
    /// latency (lower is better). No-op if no decision is pending.
    pub fn reward(&mut self, src: NodeId, dst: NodeId, observed: SimDuration) {
        if let Some(flow) = self.flows.get_mut(&(src, dst)) {
            if let Some((state, action)) = flow.last.take() {
                // Reward: negative latency in ms, so faster = better.
                let r = -(observed.as_micros() as f64) / 1_000.0;
                flow.learner.update(state, action, r, state);
            }
        }
    }

    /// Greedy (post-training) choice the flow would make in the given
    /// congestion bucket — for inspection in experiments.
    pub fn greedy_choice(&self, src: NodeId, dst: NodeId, bucket: usize) -> Option<RouteChoice> {
        self.flows.get(&(src, dst)).map(|f| RouteChoice::from_index(f.learner.greedy(bucket)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use myrtus_continuum::net::Protocol;
    use myrtus_continuum::node::NodeSpec;
    use myrtus_continuum::time::SimTime;

    /// Triangle: fast two-hop path 0→1→2 and a slow direct link 0→2.
    fn triangle() -> (SimCore, NodeId, NodeId, NodeId) {
        let mut sim = SimCore::new();
        let a = sim.add_node(NodeSpec::preset_fog_gateway("a"));
        let b = sim.add_node(NodeSpec::preset_fog_gateway("b"));
        let c = sim.add_node(NodeSpec::preset_fog_gateway("c"));
        sim.network_mut().add_duplex(a, b, SimDuration::from_millis(1), 100.0);
        sim.network_mut().add_duplex(b, c, SimDuration::from_millis(1), 100.0);
        sim.network_mut().add_duplex(a, c, SimDuration::from_millis(10), 100.0);
        (sim, a, b, c)
    }

    #[test]
    fn routes_local_and_unreachable() {
        let (sim, a, _, _) = triangle();
        let mut mgr = NetworkManager::new();
        assert_eq!(mgr.route(&sim, a, a), Some(vec![]));
        assert_eq!(mgr.route(&sim, a, NodeId::from_raw(99)), None);
    }

    #[test]
    fn uncongested_flows_converge_to_primary() {
        let (sim, a, _, c) = triangle();
        let mut mgr = NetworkManager::new();
        for _ in 0..300 {
            let path = mgr.route(&sim, a, c).expect("reachable");
            // Simulated observation: primary (2 hops, 2ms) vs detour (10ms).
            let latency = if path.len() == 2 {
                SimDuration::from_millis(2)
            } else {
                SimDuration::from_millis(10)
            };
            mgr.reward(a, c, latency);
        }
        assert_eq!(mgr.greedy_choice(a, c, 0), Some(RouteChoice::Primary));
        assert!(mgr.decisions() >= 300);
    }

    #[test]
    fn congestion_flips_the_choice_when_detour_pays() {
        let (mut sim, a, _, c) = triangle();
        // Saturate the primary first link so its queue is long.
        let primary = sim.network().route(a, c).expect("reachable");
        let first_link = primary[0];
        for _ in 0..200 {
            let spec_path = vec![first_link];
            let now = sim.now();
            sim.network_mut().transfer(now, &spec_path, 1_000_000, Protocol::Mqtt);
        }
        let mut mgr = NetworkManager::new();
        // Under congestion the detour is observed faster.
        for _ in 0..400 {
            let path = mgr.route(&sim, a, c).expect("reachable");
            let latency = if path.len() == 2 {
                SimDuration::from_millis(50) // queued primary
            } else {
                SimDuration::from_millis(10)
            };
            mgr.reward(a, c, latency);
        }
        let bucket = congestion_state(1.0, 4);
        assert_eq!(mgr.greedy_choice(a, c, bucket), Some(RouteChoice::Alternate));
        assert!(mgr.detours() > 0);
        let _ = SimTime::ZERO;
    }

    #[test]
    fn flows_learn_independently() {
        let (sim, a, b, c) = triangle();
        let mut mgr = NetworkManager::new();
        mgr.route(&sim, a, c);
        mgr.reward(a, c, SimDuration::from_millis(1));
        mgr.route(&sim, b, c);
        assert!(mgr.greedy_choice(a, c, 0).is_some());
        assert!(mgr.greedy_choice(c, a, 0).is_none(), "reverse flow untouched");
    }

    #[test]
    fn reward_without_decision_is_benign() {
        let (sim, a, _, c) = triangle();
        let mut mgr = NetworkManager::new();
        mgr.reward(a, c, SimDuration::from_millis(1));
        assert_eq!(mgr.decisions(), 0);
        let _ = sim;
    }
}
