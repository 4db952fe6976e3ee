//! Layer agents and inter-agent negotiation.
//!
//! "All the components at each layer communicate with their
//! layer-/component-specific MIRTO agent which, in turn, communicates
//! with the other layer-/component-specific agents" (paper Sect. III) to
//! "negotiate the usage of resources" (Sect. IV). The negotiation here
//! is a sealed-bid offload auction: the requesting agent broadcasts a
//! stage's requirements; each agent answers with its best estimated
//! completion time and marginal energy over the nodes it manages; the
//! requester picks the cheapest feasible bid.

use myrtus_continuum::engine::SimCore;
use myrtus_continuum::ids::NodeId;
use myrtus_continuum::net::{PlanEstimator, Protocol};
use myrtus_continuum::node::Layer;
use myrtus_continuum::time::{SimDuration, SimTime};

use crate::managers::privsec::node_security_level;
use myrtus_security::suite::SecurityLevel;

/// Requirements of the stage being auctioned.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OffloadQuery {
    /// Where the input data currently lives.
    pub data_at: NodeId,
    /// Software work, megacycles.
    pub work_mc: f64,
    /// Input volume to move, bytes.
    pub input_bytes: u64,
    /// Memory requirement, MiB.
    pub mem_mb: u64,
    /// Minimum security level of the host.
    pub min_level: SecurityLevel,
}

/// One agent's answer.
#[derive(Debug, Clone, PartialEq)]
pub struct Bid {
    /// Bidding agent's layer.
    pub layer: Layer,
    /// Offered node.
    pub node: NodeId,
    /// Estimated completion instant (transfer + backlog + service).
    pub est_completion: SimTime,
    /// Estimated marginal energy, joules.
    pub est_energy_j: f64,
}

/// A MIRTO agent responsible for the nodes of one layer (or one
/// component group).
#[derive(Debug, Clone)]
pub struct MirtoAgent {
    name: String,
    layer: Layer,
    nodes: Vec<NodeId>,
}

impl MirtoAgent {
    /// Creates an agent managing `nodes` in `layer`.
    pub fn new(name: impl Into<String>, layer: Layer, nodes: Vec<NodeId>) -> Self {
        MirtoAgent { name: name.into(), layer, nodes }
    }

    /// Agent name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The layer this agent manages.
    pub fn layer(&self) -> Layer {
        self.layer
    }

    /// Managed nodes.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Answers an offload query with this agent's best bid, or `None`
    /// when no managed node qualifies. Input transfers are priced
    /// through `est`, which must be bound to `sim`'s network at
    /// `sim.now()`.
    pub fn bid(&self, sim: &SimCore, est: &PlanEstimator, query: &OffloadQuery) -> Option<Bid> {
        let mut best: Option<Bid> = None;
        for &id in &self.nodes {
            let Some(state) = sim.node(id) else { continue };
            if !state.is_up()
                || state.spec().mem_mb() < query.mem_mb
                || node_security_level(state.spec().kind()) < query.min_level
            {
                continue;
            }
            let transfer_us = est.transfer_us(query.data_at, id, query.input_bytes, Protocol::Mqtt);
            if !transfer_us.is_finite() {
                continue;
            }
            let backlog = state.estimated_backlog(sim.now());
            let service = state.service_time(query.work_mc);
            let est_completion =
                sim.now() + SimDuration::from_micros_f64(transfer_us) + backlog + service;
            let point = state.point();
            let marginal_w =
                (point.active_w() - point.idle_w()).max(0.0) / state.spec().cores() as f64;
            let est_energy_j = marginal_w * service.as_secs_f64();
            let bid = Bid { layer: self.layer, node: id, est_completion, est_energy_j };
            if best.as_ref().is_none_or(|b| bid.est_completion < b.est_completion) {
                best = Some(bid);
            }
        }
        best
    }
}

/// Runs a sealed-bid auction across agents; returns the winning bid
/// (earliest estimated completion; energy breaks ties). Every bid
/// prices its transfers through `est` (see [`MirtoAgent::bid`]).
pub fn auction(
    agents: &[MirtoAgent],
    sim: &SimCore,
    est: &PlanEstimator,
    query: &OffloadQuery,
) -> Option<Bid> {
    agents.iter().filter_map(|a| a.bid(sim, est, query)).min_by(|a, b| {
        a.est_completion
            .cmp(&b.est_completion)
            .then_with(|| {
                a.est_energy_j.partial_cmp(&b.est_energy_j).unwrap_or(std::cmp::Ordering::Equal)
            })
            .then_with(|| a.node.cmp(&b.node))
    })
}

/// A placement policy driven entirely by inter-agent negotiation: every
/// component is auctioned in topological order, with the data source set
/// to its predecessor's winner — the "agents negotiate the usage of
/// resources" flavor of MIRTO (paper Sect. IV). Bids price their
/// transfers through the context's route cache.
#[derive(Debug, Default)]
pub struct AuctionPlacement;

impl AuctionPlacement {
    /// Creates the policy.
    pub fn new() -> Self {
        AuctionPlacement
    }
}

impl crate::policies::PlacementPolicy for AuctionPlacement {
    fn name(&self) -> &'static str {
        "agent-auction"
    }

    fn adaptive(&self) -> bool {
        true
    }

    fn place(
        &mut self,
        ctx: &crate::placement::PlanContext<'_>,
    ) -> Result<crate::placement::Placement, crate::policies::PlaceError> {
        use crate::managers::privsec::{level_for_tier, node_security_level};
        let nodes = ctx.dag.nodes();
        let mut assignment = vec![NodeId::from_raw(0); nodes.len()];
        for &i in ctx.dag.topo_order() {
            let dn = &nodes[i];
            let comp = &ctx.app.components[dn.component_idx];
            let candidates = ctx
                .candidates
                .get(i)
                .filter(|c| !c.is_empty())
                .ok_or(crate::policies::PlaceError::NoCandidate { component: i })?;
            // Data lives where the last predecessor was placed; sources
            // auction from their own best candidate (data is born there).
            let data_at = dn.preds.iter().last().map(|&p| assignment[p]).unwrap_or(candidates[0]);
            let min_level = level_for_tier(comp.requirements.security);
            // One agent per layer, restricted to this component's
            // candidates — the layer agents bid only with what they own.
            let mut agents = Vec::new();
            for layer in Layer::ALL {
                let owned: Vec<NodeId> = candidates
                    .iter()
                    .copied()
                    .filter(|n| {
                        ctx.sim
                            .node(*n)
                            .map(|s| {
                                s.spec().layer() == layer
                                    && node_security_level(s.spec().kind()) >= min_level
                            })
                            .unwrap_or(false)
                    })
                    .collect();
                if !owned.is_empty() {
                    agents.push(MirtoAgent::new(format!("{layer}-agent"), layer, owned));
                }
            }
            let query = OffloadQuery {
                data_at,
                work_mc: dn.work_mc,
                input_bytes: dn
                    .preds
                    .iter()
                    .filter_map(|&p| nodes[p].succs.iter().find(|(s, _)| *s == i).map(|(_, b)| *b))
                    .sum(),
                mem_mb: comp.requirements.mem_mb,
                min_level,
            };
            let win = auction(&agents, ctx.sim, &ctx.estimator, &query)
                .ok_or(crate::policies::PlaceError::NoCandidate { component: i })?;
            assignment[i] = win.node;
        }
        Ok(crate::placement::Placement::new(assignment))
    }
}

/// Builds the canonical three agents (edge, fog, cloud) over a continuum.
pub fn layer_agents(continuum: &myrtus_continuum::topology::Continuum) -> Vec<MirtoAgent> {
    vec![
        MirtoAgent::new("edge-agent", Layer::Edge, continuum.edge().to_vec()),
        MirtoAgent::new("fog-agent", Layer::Fog, continuum.fog()),
        MirtoAgent::new("cloud-agent", Layer::Cloud, continuum.cloud().to_vec()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use myrtus_continuum::engine::NullDriver;
    use myrtus_continuum::net::RouteCache;
    use myrtus_continuum::task::TaskInstance;
    use myrtus_continuum::topology::{Continuum, ContinuumBuilder};

    fn query(data_at: NodeId, work_mc: f64, input_bytes: u64) -> OffloadQuery {
        OffloadQuery { data_at, work_mc, input_bytes, mem_mb: 16, min_level: SecurityLevel::Low }
    }

    /// Runs the layer agents' auction over `c` at its current instant.
    fn run_auction(c: &Continuum, q: &OffloadQuery) -> Option<Bid> {
        let cache = RouteCache::new();
        let est = PlanEstimator::new(c.sim().network(), c.sim().now(), &cache);
        auction(&layer_agents(c), c.sim(), &est, q)
    }

    #[test]
    fn small_local_work_stays_at_the_edge() {
        let c = ContinuumBuilder::new().build();
        let src = c.edge()[0];
        let win = run_auction(&c, &query(src, 1.0, 500_000)).expect("some bid");
        assert_eq!(win.layer, Layer::Edge, "big data + tiny work stays local: {win:?}");
    }

    #[test]
    fn heavy_work_with_small_data_goes_up_the_continuum() {
        let c = ContinuumBuilder::new().build();
        let src = c.edge()[0];
        let win = run_auction(&c, &query(src, 100_000.0, 1_000)).expect("some bid");
        assert_ne!(win.layer, Layer::Edge, "compute-heavy work offloads: {win:?}");
    }

    #[test]
    fn busy_nodes_bid_worse() {
        let mut c = ContinuumBuilder::new().build();
        let src = c.edge()[0];
        let q = query(src, 10.0, 0);
        let agent = MirtoAgent::new("edge", Layer::Edge, vec![src]);
        let cache = RouteCache::new();
        let bid = |c: &Continuum| {
            let est = PlanEstimator::new(c.sim().network(), c.sim().now(), &cache);
            agent.bid(c.sim(), &est, &q).expect("bids")
        };
        let idle_bid = bid(&c);
        {
            let sim = c.sim_mut();
            for _ in 0..16 {
                let t = TaskInstance::new(sim.fresh_task_id(), 100_000.0);
                sim.submit_local(src, t).expect("submit");
            }
            sim.run_until(SimTime::from_millis(1), &mut NullDriver);
        }
        let busy_bid = bid(&c);
        assert!(busy_bid.est_completion > idle_bid.est_completion);
    }

    #[test]
    fn security_level_filters_bidders() {
        let c = ContinuumBuilder::new().build();
        let src = c.edge()[0];
        let mut q = query(src, 10.0, 1_000);
        q.min_level = SecurityLevel::High;
        let win = run_auction(&c, &q).expect("fog/cloud can bid");
        let kind = c.sim().node(win.node).expect("exists").spec().kind();
        assert_eq!(node_security_level(kind), SecurityLevel::High);
    }

    #[test]
    fn no_feasible_node_means_no_bid() {
        let c = ContinuumBuilder::new().build();
        let src = c.edge()[0];
        let mut q = query(src, 1.0, 0);
        q.mem_mb = u64::MAX;
        assert!(run_auction(&c, &q).is_none());
    }

    #[test]
    fn auction_policy_places_every_component() {
        use crate::placement::{evaluate, PlanContext};
        use crate::policies::PlacementPolicy;
        let c = ContinuumBuilder::new().build();
        let app = myrtus_workload::scenarios::telerehab();
        let dag = myrtus_workload::graph::RequestDag::from_application(&app).expect("valid");
        let (kb, cache) = (myrtus_kb::KnowledgeBase::new(), RouteCache::new());
        let all: Vec<NodeId> = c.all_nodes();
        let ctx = PlanContext::new(c.sim(), &kb, &app, &dag, vec![all; dag.nodes().len()], &cache);
        let mut policy = AuctionPlacement::new();
        assert_eq!(policy.name(), "agent-auction");
        assert!(policy.adaptive());
        let placement = policy.place(&ctx).expect("auctions settle");
        assert_eq!(placement.len(), dag.nodes().len());
        let score = evaluate(&ctx, &placement);
        assert!(score.feasible);
        // Negotiated placement should be competitive with random.
        let mut rnd = crate::policies::RandomPlacement::new(1);
        let random = rnd.place(&ctx).expect("places");
        assert!(
            score.objective(0.0) <= evaluate(&ctx, &random).objective(0.0) * 1.5,
            "auction result is not wildly worse than random"
        );
    }

    #[test]
    fn auction_policy_respects_security_candidates() {
        use crate::placement::PlanContext;
        use crate::policies::PlacementPolicy;
        let c = ContinuumBuilder::new().build();
        let app = myrtus_workload::scenarios::telerehab();
        let dag = myrtus_workload::graph::RequestDag::from_application(&app).expect("valid");
        let (kb, cache) = (myrtus_kb::KnowledgeBase::new(), RouteCache::new());
        let mgr = crate::managers::privsec::PrivacySecurityManager::new(true);
        let candidates = mgr.candidates(c.sim(), &app, &dag, None);
        let ctx = PlanContext::new(c.sim(), &kb, &app, &dag, candidates, &cache);
        let placement = AuctionPlacement::new().place(&ctx).expect("auctions settle");
        // The High-tier session-store must sit on a High-capable node.
        let store = dag.nodes().iter().position(|n| n.name == "session-store").expect("exists");
        let kind = c.sim().node(placement.node_of(store)).expect("exists").spec().kind();
        assert_eq!(crate::managers::privsec::node_security_level(kind), SecurityLevel::High);
    }

    #[test]
    fn auction_policy_bids_through_the_plan_cache() {
        use crate::placement::PlanContext;
        use crate::policies::PlacementPolicy;
        let c = ContinuumBuilder::new().build();
        let app = myrtus_workload::scenarios::telerehab();
        let dag = myrtus_workload::graph::RequestDag::from_application(&app).expect("valid");
        let (kb, cache) = (myrtus_kb::KnowledgeBase::new(), RouteCache::new());
        let all: Vec<NodeId> = c.all_nodes();
        let ctx = PlanContext::new(c.sim(), &kb, &app, &dag, vec![all; dag.nodes().len()], &cache);
        let first = AuctionPlacement::new().place(&ctx).expect("auctions settle");
        let misses = cache.stats().route_misses;
        assert!(misses > 0, "bids fill the context's route cache");
        let second = AuctionPlacement::new().place(&ctx).expect("auctions settle");
        assert_eq!(cache.stats().route_misses, misses, "a re-run is served from the memo");
        assert_eq!(first, second);
    }

    #[test]
    fn agents_expose_identity() {
        let c = ContinuumBuilder::new().build();
        let agents = layer_agents(&c);
        assert_eq!(agents.len(), 3);
        assert_eq!(agents[0].name(), "edge-agent");
        assert_eq!(agents[2].layer(), Layer::Cloud);
        assert_eq!(agents[0].nodes().len(), c.edge().len());
    }
}
