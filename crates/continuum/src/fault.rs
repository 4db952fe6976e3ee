//! Failure injection.
//!
//! Experiments on MIRTO's dynamic reconfiguration (paper Sect. IV) need
//! controlled node crashes and recoveries. A [`FaultPlan`] is a
//! deterministic list of crash windows that can be applied to a
//! [`SimCore`]; [`FaultPlan::random`] samples one from a seeded RNG.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::engine::SimCore;
use crate::ids::{LinkId, NodeId};
use crate::time::{SimDuration, SimTime};

/// One crash window: the node goes down at `at` and recovers after
/// `outage` (or never, if `outage` is `None`).
#[derive(Debug, Clone, PartialEq)]
pub struct Fault {
    /// The affected node.
    pub node: NodeId,
    /// Crash instant.
    pub at: SimTime,
    /// Outage duration; `None` means the node never recovers.
    pub outage: Option<SimDuration>,
}

/// One link-cut window.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkFault {
    /// The affected link.
    pub link: LinkId,
    /// Cut instant.
    pub at: SimTime,
    /// Outage duration; `None` means the link never recovers.
    pub outage: Option<SimDuration>,
}

/// A deterministic failure schedule.
///
/// # Examples
///
/// ```
/// use myrtus_continuum::fault::FaultPlan;
/// use myrtus_continuum::ids::NodeId;
/// use myrtus_continuum::time::{SimDuration, SimTime};
///
/// let plan = FaultPlan::new()
///     .crash(NodeId::from_raw(0), SimTime::from_secs(1), Some(SimDuration::from_secs(2)));
/// assert_eq!(plan.faults().len(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
    link_faults: Vec<LinkFault>,
}

impl FaultPlan {
    /// Creates an empty plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds a crash window.
    pub fn crash(mut self, node: NodeId, at: SimTime, outage: Option<SimDuration>) -> Self {
        self.faults.push(Fault { node, at, outage });
        self
    }

    /// Adds a link-cut window (backhaul outage).
    pub fn cut_link(mut self, link: LinkId, at: SimTime, outage: Option<SimDuration>) -> Self {
        self.link_faults.push(LinkFault { link, at, outage });
        self
    }

    /// The scheduled link faults.
    pub fn link_faults(&self) -> &[LinkFault] {
        &self.link_faults
    }

    /// The scheduled faults.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Samples a random plan: each node in `nodes` crashes independently
    /// with probability `crash_prob`, at a uniform instant in
    /// `[0, horizon)`, for a uniform outage in `[min_outage, max_outage]`.
    pub fn random(
        seed: u64,
        nodes: &[NodeId],
        crash_prob: f64,
        horizon: SimTime,
        min_outage: SimDuration,
        max_outage: SimDuration,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut plan = FaultPlan::new();
        for &n in nodes {
            if rng.gen::<f64>() < crash_prob {
                let at = SimTime::from_micros(rng.gen_range(0..horizon.as_micros().max(1)));
                let outage = SimDuration::from_micros(rng.gen_range(
                    min_outage.as_micros()..=max_outage.as_micros().max(min_outage.as_micros()),
                ));
                plan = plan.crash(n, at, Some(outage));
            }
        }
        plan
    }

    /// Samples a chaos plan covering node *and* link faults, including
    /// never-recovering outages: each node (link) fails independently
    /// with probability `node_prob` (`link_prob`) at a uniform instant
    /// in `[0, horizon)`; each failure is permanent (`outage == None`)
    /// with probability `permanent_prob`, otherwise it heals after a
    /// uniform outage in `[min_outage, max_outage]`.
    #[allow(clippy::too_many_arguments)]
    pub fn random_chaos(
        seed: u64,
        nodes: &[NodeId],
        links: &[LinkId],
        node_prob: f64,
        link_prob: f64,
        permanent_prob: f64,
        horizon: SimTime,
        min_outage: SimDuration,
        max_outage: SimDuration,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut plan = FaultPlan::new();
        let sample_outage = |rng: &mut StdRng| -> (SimTime, Option<SimDuration>) {
            let at = SimTime::from_micros(rng.gen_range(0..horizon.as_micros().max(1)));
            let outage = if rng.gen::<f64>() < permanent_prob {
                None
            } else {
                Some(SimDuration::from_micros(rng.gen_range(
                    min_outage.as_micros()..=max_outage.as_micros().max(min_outage.as_micros()),
                )))
            };
            (at, outage)
        };
        for &n in nodes {
            if rng.gen::<f64>() < node_prob {
                let (at, outage) = sample_outage(&mut rng);
                plan = plan.crash(n, at, outage);
            }
        }
        for &l in links {
            if rng.gen::<f64>() < link_prob {
                let (at, outage) = sample_outage(&mut rng);
                plan = plan.cut_link(l, at, outage);
            }
        }
        plan
    }

    /// Schedules every fault on the core.
    pub fn apply(&self, sim: &mut SimCore) {
        for f in &self.faults {
            sim.schedule_node_down(f.node, f.at);
            if let Some(outage) = f.outage {
                sim.schedule_node_up(f.node, f.at + outage);
            }
        }
        for f in &self.link_faults {
            sim.schedule_link_down(f.link, f.at);
            if let Some(outage) = f.outage {
                sim.schedule_link_up(f.link, f.at + outage);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::NullDriver;
    use crate::node::NodeSpec;

    #[test]
    fn plan_applies_crash_and_recovery() {
        let mut sim = SimCore::new();
        let n = sim.add_node(NodeSpec::preset_edge_multicore("n"));
        FaultPlan::new()
            .crash(n, SimTime::from_millis(10), Some(SimDuration::from_millis(10)))
            .apply(&mut sim);
        sim.run_until(SimTime::from_millis(15), &mut NullDriver);
        assert!(!sim.node(n).expect("exists").is_up());
        sim.run_until(SimTime::from_millis(25), &mut NullDriver);
        assert!(sim.node(n).expect("exists").is_up());
    }

    #[test]
    fn permanent_fault_never_recovers() {
        let mut sim = SimCore::new();
        let n = sim.add_node(NodeSpec::preset_edge_multicore("n"));
        FaultPlan::new().crash(n, SimTime::from_millis(1), None).apply(&mut sim);
        sim.run_until(SimTime::from_secs(100), &mut NullDriver);
        assert!(!sim.node(n).expect("exists").is_up());
    }

    #[test]
    fn link_cut_plan_applies() {
        let mut sim = SimCore::new();
        let a = sim.add_node(NodeSpec::preset_edge_multicore("a"));
        let b = sim.add_node(NodeSpec::preset_fog_gateway("b"));
        let (ab, _) = sim.network_mut().add_duplex(a, b, SimDuration::from_millis(1), 10.0);
        FaultPlan::new()
            .cut_link(ab, SimTime::from_millis(5), Some(SimDuration::from_millis(5)))
            .apply(&mut sim);
        sim.run_until(SimTime::from_millis(7), &mut NullDriver);
        assert!(!sim.network().link_state(ab).expect("exists").is_up());
        sim.run_until(SimTime::from_millis(12), &mut NullDriver);
        assert!(sim.network().link_state(ab).expect("exists").is_up());
    }

    #[test]
    fn random_plan_is_deterministic_per_seed() {
        let nodes: Vec<NodeId> = (0..20).map(NodeId::from_raw).collect();
        let mk = |seed| {
            FaultPlan::random(
                seed,
                &nodes,
                0.5,
                SimTime::from_secs(10),
                SimDuration::from_millis(100),
                SimDuration::from_secs(1),
            )
        };
        assert_eq!(mk(7), mk(7));
        assert_ne!(mk(7), mk(8));
    }

    #[test]
    fn chaos_plan_is_deterministic_and_covers_links() {
        let nodes: Vec<NodeId> = (0..20).map(NodeId::from_raw).collect();
        let links: Vec<LinkId> = (0..20).map(LinkId::from_raw).collect();
        let mk = |seed| {
            FaultPlan::random_chaos(
                seed,
                &nodes,
                &links,
                0.8,
                0.8,
                0.3,
                SimTime::from_secs(10),
                SimDuration::from_millis(100),
                SimDuration::from_secs(1),
            )
        };
        assert_eq!(mk(3), mk(3));
        assert_ne!(mk(3), mk(4));
        let plan = mk(3);
        assert!(!plan.faults().is_empty());
        assert!(!plan.link_faults().is_empty());
        // permanent_prob = 0.3 over enough samples yields at least one
        // never-recovering outage for this seed.
        assert!(
            plan.faults().iter().any(|f| f.outage.is_none())
                || plan.link_faults().iter().any(|f| f.outage.is_none())
        );
    }

    #[test]
    fn zero_probability_means_no_faults() {
        let nodes: Vec<NodeId> = (0..5).map(NodeId::from_raw).collect();
        let plan = FaultPlan::random(
            1,
            &nodes,
            0.0,
            SimTime::from_secs(1),
            SimDuration::from_millis(1),
            SimDuration::from_millis(2),
        );
        assert!(plan.faults().is_empty());
    }
}
