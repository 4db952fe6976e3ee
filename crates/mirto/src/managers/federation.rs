//! Federation Manager: the escalation tier above horizontal scaling.
//!
//! PR-5 elasticity relieves a hot component with replicas *inside* its
//! region; this manager relieves a hot *region* by bursting work to a
//! peer. It runs once per MAPE round, after the Elasticity Manager:
//!
//! 1. **advertise** — publish the home region's fresh
//!    [`RegionDigest`] into the [`GossipRegistry`] (and the KB's
//!    `/region/{r}/` shard), then run one anti-entropy round;
//! 2. **escalate** — when the home digest shows sustained saturation
//!    (utilization or queue pressure for `escalation_rounds`
//!    consecutive rounds) *and* replicas are exhausted, solicit sealed
//!    bids from every peer's gossiped view and run the deterministic
//!    auction ([`run_auction`]);
//! 3. **burst** — record the winner in the [`AuctionBook`] (at most
//!    one live award per application) and expose the won node as a
//!    routing candidate; the engine's per-task ETA router then sends
//!    each task wherever WAN transfer + Table II protection + backlog
//!    is cheapest, so bursting never forces traffic across the WAN;
//! 4. **release** — close the burst once home utilization falls to
//!    `release_utilization`, then hold a cooldown.
//!
//! Everything is driven by the seeded gossip schedule and the digest
//! contents — no wall clock, no randomness — so federated runs are
//! byte-identical across repeats.

use myrtus_continuum::engine::SimCore;
use myrtus_continuum::federation::{
    bid_from_view, run_auction, AuctionBook, BurstQuery, GossipConfig, GossipRegistry,
    RegionDigest, SealedBid,
};
use myrtus_continuum::ids::{NodeId, RegionId};
use myrtus_continuum::net::{PlanEstimator, Protocol};
use myrtus_obs::hash::WordMap;

use crate::managers::privsec::node_security_level;
use myrtus_security::suite::SecurityLevel;

/// Federation tier configuration ([`None`] in
/// [`crate::engine::EngineConfig`] keeps the tier off and legacy runs
/// byte-identical).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FederationConfig {
    /// Gossip fanout and peer-schedule seed.
    pub gossip: GossipConfig,
    /// Home-region mean utilization above which the fleet counts as
    /// pegged. Saturation needs this *and* [`Self::burst_queue`]: a
    /// sloshing run queue on an otherwise idle fleet is rebalancing
    /// work, not overload.
    pub burst_utilization: f64,
    /// Home-region total run-queue depth that, together with a pegged
    /// fleet, counts as saturation. A pegged fleet whose queue has
    /// *risen strictly* for two consecutive rounds saturates at half
    /// this depth — an overload ramp is already lost by the time the
    /// absolute bound trips, while a steady busy peak never shows the
    /// sustained climb.
    pub burst_queue: f64,
    /// Home-region utilization at which an open burst may close.
    pub release_utilization: f64,
    /// Home-region run-queue depth the close also requires (a region
    /// with mostly-idle edge nodes has low *mean* utilization even
    /// while its hot hosts drown, so the queue must drain too).
    pub release_queue: f64,
    /// Consecutive saturated rounds before the auction runs.
    pub escalation_rounds: u32,
    /// Rounds a closed burst blocks re-opening.
    pub cooldown_rounds: u32,
    /// Peer views older than this many gossip rounds cannot win.
    pub staleness_limit: u64,
    /// Minimum advertised peer headroom to consider at all, Mc/s.
    pub min_headroom_mc_per_s: f64,
}

impl Default for FederationConfig {
    fn default() -> Self {
        FederationConfig {
            gossip: GossipConfig::default(),
            burst_utilization: 0.8,
            burst_queue: 8.0,
            release_utilization: 0.5,
            release_queue: 2.0,
            escalation_rounds: 2,
            cooldown_rounds: 3,
            staleness_limit: 8,
            min_headroom_mc_per_s: 1.0,
        }
    }
}

/// One open burst: where an application's overflow tasks may go.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BurstLink {
    /// The awarded peer region.
    pub region: RegionId,
    /// The peer node that executes bursted tasks.
    pub node: NodeId,
}

/// The Federation Manager (see module docs).
#[derive(Debug)]
pub struct FederationManager {
    cfg: FederationConfig,
    /// Per-region sorted node lists (index = region raw id).
    regions: Vec<Vec<NodeId>>,
    /// Per-region WAN ingress node.
    ingress: Vec<NodeId>,
    /// Application home regions.
    home: WordMap<u16, RegionId>,
    registry: GossipRegistry,
    book: AuctionBook,
    bursts: WordMap<u16, BurstLink>,
    /// Rounds each open link has held its current award (lease age);
    /// at every `cooldown_rounds` the link re-auctions and migrates if
    /// a strictly different winner emerges.
    lease_age: WordMap<u16, u32>,
    /// Consecutive saturated rounds, per region.
    pressure: Vec<u32>,
    /// Last round's saturation verdict, per region (computed once in
    /// [`Self::update_pressure`]; `tick` reads it so both always
    /// agree).
    saturated: Vec<bool>,
    /// The two previous rounds' digest queue depths, per region, for
    /// the rising-trend half of the saturation predicate.
    queue_prev: Vec<[f64; 2]>,
    /// Cooldown rounds left, per application.
    cooldown: WordMap<u16, u32>,
    bursts_opened: u64,
    bursts_closed: u64,
    tasks_bursted: u64,
}

impl FederationManager {
    /// Builds the manager over the federation's per-region node sets
    /// and ingress nodes (one entry per region, in region order).
    pub fn new(cfg: FederationConfig, mut regions: Vec<Vec<NodeId>>, ingress: Vec<NodeId>) -> Self {
        for r in &mut regions {
            r.sort_unstable();
        }
        let n = regions.len();
        FederationManager {
            registry: GossipRegistry::new(n, cfg.gossip),
            cfg,
            regions,
            ingress,
            home: WordMap::default(),
            book: AuctionBook::new(),
            bursts: WordMap::default(),
            lease_age: WordMap::default(),
            pressure: vec![0; n],
            saturated: vec![false; n],
            queue_prev: vec![[0.0; 2]; n],
            cooldown: WordMap::default(),
            bursts_opened: 0,
            bursts_closed: 0,
            tasks_bursted: 0,
        }
    }

    /// Whether the tier can act at all (more than one region).
    pub fn active(&self) -> bool {
        self.regions.len() > 1
    }

    /// The manager's configuration.
    pub fn config(&self) -> &FederationConfig {
        &self.cfg
    }

    /// The gossip registry (read access for tests and exports).
    pub fn registry(&self) -> &GossipRegistry {
        &self.registry
    }

    /// Pins an application to its home region.
    pub fn assign_home(&mut self, app: u16, region: RegionId) {
        self.home.insert(app, region);
    }

    /// An application's home region.
    pub fn home_of(&self, app: u16) -> Option<RegionId> {
        self.home.get(&app).copied()
    }

    /// The sorted node set of an application's home region — the
    /// engine restricts placement candidates to it so regional apps
    /// never silently leak across the WAN outside a burst.
    pub fn home_nodes(&self, app: u16) -> Option<&[NodeId]> {
        self.home_of(app).map(|r| self.regions[r.index()].as_slice())
    }

    /// The open burst link for an application, if any.
    pub fn burst_target(&self, app: u16) -> Option<BurstLink> {
        self.bursts.get(&app).copied()
    }

    /// Tallies one task routed over an open burst link.
    pub fn note_bursted(&mut self) {
        self.tasks_bursted += 1;
    }

    /// Bursts opened over the run.
    pub fn bursts_opened(&self) -> u64 {
        self.bursts_opened
    }

    /// Bursts closed over the run.
    pub fn bursts_closed(&self) -> u64 {
        self.bursts_closed
    }

    /// Tasks routed across the WAN over the run.
    pub fn tasks_bursted(&self) -> u64 {
        self.tasks_bursted
    }

    /// Snapshots one region's current resource state into its advert:
    /// aggregate headroom and pressure over live nodes plus the node
    /// the region offers as burst target — its highest-security,
    /// least-backlogged live host (ties on node id).
    pub fn digest_of(&self, sim: &SimCore, region: RegionId) -> RegionDigest {
        let now = sim.now();
        let mut d = RegionDigest::empty(region);
        let mut live = 0usize;
        let mut best: Option<(u8, u64, NodeId)> = None;
        for &id in &self.regions[region.index()] {
            let Some(node) = sim.node(id) else { continue };
            if !node.is_up() {
                continue;
            }
            live += 1;
            let util = node.utilization();
            d.utilization += util;
            d.queue_depth += (node.running().len() + node.queue_len()) as f64;
            d.free_mc_per_s += node.spec().capacity_mcps() * (1.0 - util).max(0.0);
            let tier = node_security_level(node.spec().kind()).tier();
            let backlog = node.estimated_backlog(now).as_micros();
            // Highest tier first, then least backlog, then lowest id.
            let key = (tier, backlog, id);
            let better = match best {
                None => true,
                Some((bt, bb, bi)) => {
                    (bt, std::cmp::Reverse(bb), std::cmp::Reverse(bi))
                        < (tier, std::cmp::Reverse(backlog), std::cmp::Reverse(id))
                }
            };
            if better {
                best = Some(key);
                d.best_node = Some(id);
                d.best_speed_mhz = node.spec().speed_mhz();
                d.best_backlog_us = backlog as f64;
                d.best_mem_free_mb = node.mem_free_mb();
                d.security_tier = tier;
            }
        }
        if live > 0 {
            d.utilization /= live as f64;
        }
        d
    }

    /// Regions with no live node this round: they neither advertise
    /// nor gossip (the churn the staleness property test exercises).
    fn down_regions(&self, sim: &SimCore) -> Vec<RegionId> {
        (0..self.regions.len())
            .filter(|&r| !self.regions[r].iter().any(|&id| sim.node(id).is_some_and(|n| n.is_up())))
            .map(|r| RegionId::from_raw(r as u16))
            .collect()
    }

    /// One gossip round: every live region publishes its fresh digest,
    /// then the seeded anti-entropy exchange runs. Returns the digests
    /// published this round (for KB shard ingestion).
    pub fn gossip_round(&mut self, sim: &SimCore) -> Vec<RegionDigest> {
        let down = self.down_regions(sim);
        let mut published = Vec::new();
        for r in 0..self.regions.len() {
            let region = RegionId::from_raw(r as u16);
            if down.contains(&region) {
                continue;
            }
            let digest = self.digest_of(sim, region);
            self.registry.publish(region, digest);
            if let Some(e) = self.registry.view(region, region) {
                published.push(e.digest.clone());
            }
        }
        self.registry.round_with_churn(&down);
        published
    }

    /// Collects one sealed bid per peer region from the home region's
    /// gossiped views. Silent or stale peers yield explicitly
    /// infeasible placeholder bids, so the auction's feasibility
    /// filter — not absence — rejects them.
    pub fn solicit(
        &self,
        sim: &SimCore,
        est: &PlanEstimator,
        home: RegionId,
        query: &BurstQuery,
    ) -> Vec<SealedBid> {
        let src = self.ingress[home.index()];
        let src_mhz = sim.node(src).map(|n| n.spec().speed_mhz()).unwrap_or(1000.0);
        let hs = SecurityLevel::from_tier(query.min_tier).suite().handshake_cost();
        (0..self.regions.len() as u16)
            .filter(|&r| r != home.as_raw())
            .map(|r| {
                let peer = RegionId::from_raw(r);
                // Pressure-aware solicitation: a peer whose own advert
                // already satisfies the burst predicate would escalate
                // itself — raw headroom notwithstanding, it is not a
                // credible host, so its view degrades to the infeasible
                // placeholder and the auction rejects it.
                let entry = self.registry.view(home, peer).filter(|e| {
                    !(e.digest.utilization >= self.cfg.burst_utilization
                        && e.digest.queue_depth >= self.cfg.burst_queue)
                });
                let target =
                    entry.and_then(|e| e.digest.best_node).unwrap_or(self.ingress[peer.index()]);
                let wire = query.input_bytes
                    + SecurityLevel::from_tier(query.min_tier).suite().record_overhead_bytes();
                let transfer_us = est.transfer_us(src, target, wire, Protocol::Mqtt);
                let dst_mhz =
                    entry.map(|e| e.digest.best_speed_mhz).filter(|&s| s > 0.0).unwrap_or(1000.0);
                let handshake_us =
                    hs.initiator_cycles as f64 / src_mhz + hs.responder_cycles as f64 / dst_mhz;
                bid_from_view(
                    peer,
                    entry,
                    self.registry.staleness(home, peer),
                    self.cfg.staleness_limit,
                    transfer_us,
                    handshake_us,
                    |d: &RegionDigest| query.work_mc * 1e6 / d.best_speed_mhz.max(1.0),
                )
            })
            .collect()
    }

    /// Escalation step for one application after this round's gossip:
    /// updates the home region's pressure streak from its *own fresh
    /// digest* and decides whether to open or close a burst. Returns
    /// the action taken, if any.
    pub fn tick(
        &mut self,
        sim: &SimCore,
        est: &PlanEstimator,
        app: u16,
        query: &BurstQuery,
        replicas_exhausted: bool,
    ) -> Option<FederationAction> {
        let home = self.home_of(app)?;
        let own = self.registry.view(home, home)?.digest.clone();
        if let Some(link) = self.bursts.get(&app).copied() {
            if own.utilization <= self.cfg.release_utilization
                && own.queue_depth <= self.cfg.release_queue
            {
                self.bursts.remove(&app);
                self.lease_age.remove(&app);
                self.book.release(app as u64);
                self.cooldown.insert(app, self.cfg.cooldown_rounds);
                self.bursts_closed += 1;
                return Some(FederationAction::Close(link));
            }
            // Lease renewal: the award was priced from the gossip view
            // at open time, but the winner node's own load drifts (its
            // region's diurnal peak arrives, other tenants land on it).
            // Every `cooldown_rounds` the link re-auctions against the
            // current views; a different winner migrates the link. The
            // current node stays biddable (its region may re-advertise
            // it), other live leases remain excluded.
            let age = self.lease_age.entry(app).or_insert(0);
            *age += 1;
            if *age < self.cfg.cooldown_rounds.max(1) {
                return None;
            }
            *age = 0;
            let mut bids = self.solicit(sim, est, home, query);
            let leased: Vec<NodeId> =
                self.bursts.values().map(|l| l.node).filter(|&n| n != link.node).collect();
            bids.retain(|b| b.node.is_none_or(|n| !leased.contains(&n)));
            let winner = run_auction(query, &bids)?;
            let node = winner.node?;
            if node == link.node {
                return None;
            }
            let next = BurstLink { region: winner.region, node };
            self.book.release(app as u64);
            self.book.award(app as u64, winner.region).ok()?;
            self.bursts.insert(app, next);
            return Some(FederationAction::Migrate { from: link, to: next });
        }
        if let Some(c) = self.cooldown.get_mut(&app) {
            if *c > 0 {
                *c -= 1;
                return None;
            }
        }
        let saturated = self.saturated[home.index()];
        // Replicas first — but with a timeout. If the autoscaler's
        // fleet never stabilises at max (noisy per-host signals flap it
        // up and down) while the region stays saturated for twice the
        // escalation window, the grace period is over and the region
        // bursts anyway.
        let exhausted = replicas_exhausted
            || self.pressure[home.index()] >= 2 * self.cfg.escalation_rounds.max(1);
        if self.pressure[home.index()] < self.cfg.escalation_rounds || !saturated || !exhausted {
            return None;
        }
        let mut bids = self.solicit(sim, est, home, query);
        // Award exclusivity: a node already serving a live burst link
        // is leased — regions advertise a single best node, so without
        // this every auction in the federation converges on the same
        // few targets and later winners drown earlier ones. A bid
        // whose advertised node is leased is infeasible this round (no
        // fallback: the lease is hard).
        let leased: Vec<NodeId> = self.bursts.values().map(|l| l.node).collect();
        bids.retain(|b| b.node.is_none_or(|n| !leased.contains(&n)));
        // Burst anti-affinity: concurrent escapes from one home region
        // spread across distinct peers, so two co-located tenants never
        // pile onto the same winner's best node and drown it together.
        // When every peer already hosts a sibling burst, fall back to
        // the full bid set rather than refusing to escalate.
        let occupied: Vec<RegionId> = self
            .bursts
            .iter()
            .filter(|(a, _)| self.home.get(a) == Some(&home))
            .map(|(_, l)| l.region)
            .collect();
        let spread: Vec<SealedBid> =
            bids.iter().filter(|b| !occupied.contains(&b.region)).cloned().collect();
        if run_auction(query, &spread).is_some() {
            bids = spread;
        }
        let winner = run_auction(query, &bids)?;
        let node = winner.node?;
        let link = BurstLink { region: winner.region, node };
        // At most one live award per application: the book enforces it
        // (and the mc model interleaves exactly this pair of calls).
        self.book.award(app as u64, winner.region).ok()?;
        self.bursts.insert(app, link);
        self.lease_age.insert(app, 0);
        self.bursts_opened += 1;
        Some(FederationAction::Open(link))
    }

    /// Updates every region's pressure streak from its own fresh
    /// digest. Called once per round, *before* per-app ticks, so all
    /// apps homed in a region see the same streak.
    pub fn update_pressure(&mut self) {
        for r in 0..self.regions.len() {
            let region = RegionId::from_raw(r as u16);
            let (util, queue) = self
                .registry
                .view(region, region)
                .map(|e| (e.digest.utilization, e.digest.queue_depth))
                .unwrap_or((0.0, 0.0));
            // Saturation needs a pegged fleet plus queue pressure: the
            // absolute bound, or — so an overload *ramp* escalates
            // before the backlog is already fatal — half the bound
            // with the queue strictly rising for two rounds. A steady
            // busy peak oscillates and never sustains the climb.
            let [oldest, prev] = self.queue_prev[r];
            let rising = queue > prev && prev > oldest;
            let saturated = util >= self.cfg.burst_utilization
                && (queue >= self.cfg.burst_queue
                    || (rising && queue >= 0.5 * self.cfg.burst_queue));
            self.queue_prev[r] = [prev, queue];
            self.saturated[r] = saturated;
            if saturated {
                self.pressure[r] = self.pressure[r].saturating_add(1);
            } else {
                self.pressure[r] = 0;
            }
        }
    }
}

/// What [`FederationManager::tick`] did for one application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FederationAction {
    /// A burst link was opened.
    Open(BurstLink),
    /// The open burst link was closed.
    Close(BurstLink),
    /// An open link was re-auctioned onto a better target at lease
    /// renewal; the award moved atomically (release + re-award).
    Migrate {
        /// The link as it was.
        from: BurstLink,
        /// The link as re-awarded.
        to: BurstLink,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use myrtus_continuum::engine::NullDriver;
    use myrtus_continuum::federation::{FederatedContinuum, FederatedContinuumBuilder};
    use myrtus_continuum::net::RouteCache;
    use myrtus_continuum::task::TaskInstance;
    use myrtus_continuum::time::SimDuration;

    fn manager(fed: &FederatedContinuum) -> FederationManager {
        let regions: Vec<Vec<NodeId>> = fed.regions().iter().map(|r| r.all_nodes()).collect();
        let ingress: Vec<NodeId> = fed.regions().iter().map(|r| r.ingress()).collect();
        FederationManager::new(FederationConfig::default(), regions, ingress)
    }

    /// Drains submission events so queued work shows up in node state.
    fn settle(fed: &mut FederatedContinuum) {
        let until = fed.continuum().sim().now() + SimDuration::from_millis(1);
        fed.sim_mut().run_until(until, &mut NullDriver);
    }

    #[test]
    fn digest_reflects_live_load() {
        let mut fed = FederatedContinuumBuilder::new().regions(2).build();
        let mgr = manager(&fed);
        let idle = mgr.digest_of(fed.continuum().sim(), RegionId::from_raw(0));
        assert!(idle.free_mc_per_s > 0.0);
        assert!(idle.best_node.is_some(), "an idle region advertises a target");
        assert_eq!(idle.security_tier, 2, "fmdc/cloud hosts advertise High");
        // Load region 0 and the digest shows it.
        let busy_node = fed.regions()[0].cloud[0];
        for _ in 0..32 {
            let t = {
                let sim = fed.sim_mut();
                TaskInstance::new(sim.fresh_task_id(), 50_000.0)
            };
            fed.sim_mut().submit_local(busy_node, t).expect("submit");
        }
        settle(&mut fed);
        let busy = mgr.digest_of(fed.continuum().sim(), RegionId::from_raw(0));
        assert!(busy.queue_depth > idle.queue_depth);
    }

    #[test]
    fn tick_opens_after_sustained_pressure_and_closes_on_relief() {
        let mut fed = FederatedContinuumBuilder::new().regions(3).build();
        let mut mgr = manager(&fed);
        mgr.assign_home(0, RegionId::from_raw(0));
        let query = BurstQuery {
            work_mc: 5.0,
            input_bytes: 4096,
            mem_mb: 64,
            min_tier: 0,
            min_headroom_mc_per_s: 1.0,
        };
        // Saturate region 0.
        let busy_nodes: Vec<NodeId> = fed.regions()[0].all_nodes();
        for &n in &busy_nodes {
            for _ in 0..16 {
                let t = {
                    let sim = fed.sim_mut();
                    TaskInstance::new(sim.fresh_task_id(), 1_000_000.0)
                };
                let _ = fed.sim_mut().submit_local(n, t);
            }
        }
        settle(&mut fed);
        let cache = RouteCache::new();
        let mut opened = None;
        for _ in 0..6 {
            mgr.gossip_round(fed.continuum().sim());
            mgr.update_pressure();
            let sim = fed.continuum().sim();
            let est = PlanEstimator::new(sim.network(), sim.now(), &cache);
            if let Some(a) = mgr.tick(sim, &est, 0, &query, true) {
                opened = Some(a);
                break;
            }
        }
        let Some(FederationAction::Open(link)) = opened else {
            panic!("sustained saturation must open a burst: {opened:?}");
        };
        assert_ne!(link.region, RegionId::from_raw(0), "burst goes to a peer");
        assert_eq!(mgr.burst_target(0), Some(link));
        assert_eq!(mgr.bursts_opened(), 1);
        // Relief: drain region 0 by running the sim forward far enough.
        // Simpler: fake it by republishing an idle digest (fresh build).
        let idle = FederatedContinuumBuilder::new().regions(3).build();
        let calm = mgr.digest_of(idle.continuum().sim(), RegionId::from_raw(0));
        mgr.registry_mut_for_tests().publish(RegionId::from_raw(0), calm);
        let sim = fed.continuum().sim();
        let est = PlanEstimator::new(sim.network(), sim.now(), &cache);
        let closed = mgr.tick(sim, &est, 0, &query, true);
        assert!(matches!(closed, Some(FederationAction::Close(_))), "{closed:?}");
        assert_eq!(mgr.burst_target(0), None);
        // Cooldown blocks an immediate re-open.
        mgr.update_pressure();
        assert_eq!(mgr.tick(sim, &est, 0, &query, true), None, "cooldown holds");
    }

    #[test]
    fn replicas_gate_the_escalation() {
        let mut fed = FederatedContinuumBuilder::new().regions(2).build();
        let mut mgr = manager(&fed);
        mgr.assign_home(0, RegionId::from_raw(0));
        for &n in &fed.regions()[0].all_nodes() {
            for _ in 0..16 {
                let t = {
                    let sim = fed.sim_mut();
                    TaskInstance::new(sim.fresh_task_id(), 1_000_000.0)
                };
                let _ = fed.sim_mut().submit_local(n, t);
            }
        }
        settle(&mut fed);
        let query = BurstQuery {
            work_mc: 5.0,
            input_bytes: 0,
            mem_mb: 0,
            min_tier: 0,
            min_headroom_mc_per_s: 1.0,
        };
        let cache = RouteCache::new();
        // With replicas not exhausted the manager holds off for the
        // grace window (2 × escalation_rounds of sustained pressure),
        // then escalates by timeout anyway.
        let mut opened_at = None;
        for round in 1..=6u32 {
            mgr.gossip_round(fed.continuum().sim());
            mgr.update_pressure();
            let sim = fed.continuum().sim();
            let est = PlanEstimator::new(sim.network(), sim.now(), &cache);
            if let Some(FederationAction::Open(_)) = mgr.tick(sim, &est, 0, &query, false) {
                opened_at = Some(round);
                break;
            }
        }
        assert_eq!(
            opened_at,
            Some(2 * mgr.cfg.escalation_rounds),
            "replicas not exhausted: scale first, burst only after the timeout"
        );
    }

    impl FederationManager {
        fn registry_mut_for_tests(&mut self) -> &mut GossipRegistry {
            &mut self.registry
        }
    }
}
