//! Federated multi-continuum support: the "clusters within a planet"
//! tier above single-cluster peering ([`crate::cluster::Federation`]).
//!
//! Three pieces, all seeded and wall-clock free so federated runs stay
//! byte-identical across repeats:
//!
//! * [`GossipRegistry`] — a deterministic anti-entropy resource
//!   registry. Every region publishes a versioned [`RegionDigest`]
//!   (capacity headroom, utilization, queue depth, the advertised burst
//!   ingress node); each gossip round pairs regions over a seeded
//!   rotating-stride schedule and push-pull merges their views, keeping
//!   the higher version per entry. Within any window of `n - 1` rounds
//!   every live pair exchanges directly at least once, which bounds
//!   view staleness (the federation test battery asserts the bound
//!   under seeded peer churn).
//! * [`run_auction`] — the sealed-bid cross-region placement auction.
//!   An overloaded region solicits one [`SealedBid`] per peer (capacity
//!   headroom + WAN transfer cost + Table II security-handshake cost +
//!   ETA on the advertised ingress) and picks the cost-minimal feasible
//!   bid, ties broken on region id — same winner for the same bids,
//!   always.
//! * [`FederatedContinuumBuilder`] — N copies of the Fig. 2 reference
//!   shape built into *one* [`SimCore`] (one event queue, one clock),
//!   with a WAN full mesh between region ingress nodes so bursted tasks
//!   pay real inter-region transfer latency.
use std::collections::BTreeMap;

use crate::engine::SimCore;
use crate::ids::{NodeId, RegionId};
use crate::time::SimDuration;
use crate::topology::{BuiltRegion, Continuum, ContinuumBuilder, HopSpec};

/// splitmix64 finalizer: one well-mixed word per (seed, index) pair.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Versioned resource advert of one region — everything a peer needs to
/// price a burst without talking to the region directly. The registry
/// stamps `version` on publish; all other fields are the publisher's.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionDigest {
    /// The advertising region.
    pub region: RegionId,
    /// Aggregate free compute over the region's live nodes, Mc/s.
    pub free_mc_per_s: f64,
    /// Mean core utilization over live nodes, `[0, 1]`.
    pub utilization: f64,
    /// Total run-queue depth (running + waiting) over live nodes.
    pub queue_depth: f64,
    /// The node the region offers as burst target (its least-backlogged
    /// high-security host), or `None` while nothing is advertised.
    pub best_node: Option<NodeId>,
    /// Core speed of the advertised node, MHz.
    pub best_speed_mhz: f64,
    /// Estimated backlog of the advertised node at publish time, µs.
    pub best_backlog_us: f64,
    /// Free memory on the advertised node, MiB.
    pub best_mem_free_mb: u64,
    /// Security tier of the advertised node (Table II ladder).
    pub security_tier: u8,
    /// Monotonic per-region publish counter, stamped by the registry.
    pub version: u64,
}

impl RegionDigest {
    /// An empty advert for `region` (version 0 = never published).
    pub fn empty(region: RegionId) -> Self {
        RegionDigest {
            region,
            free_mc_per_s: 0.0,
            utilization: 0.0,
            queue_depth: 0.0,
            best_node: None,
            best_speed_mhz: 0.0,
            best_backlog_us: 0.0,
            best_mem_free_mb: 0,
            security_tier: 0,
            version: 0,
        }
    }
}

/// Gossip pacing and schedule seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GossipConfig {
    /// Peers contacted per region per round (≥ 1).
    pub fanout: usize,
    /// Seed of the rotating-stride peer schedule.
    pub seed: u64,
}

impl Default for GossipConfig {
    fn default() -> Self {
        GossipConfig { fanout: 1, seed: 7 }
    }
}

/// One entry of a region's view: the digest plus the gossip round at
/// which its version was published (staleness = current − published).
#[derive(Debug, Clone, PartialEq)]
pub struct ViewEntry {
    /// The learned digest.
    pub digest: RegionDigest,
    /// Round at which the digest's version was published at its origin.
    pub published_round: u64,
}

/// The deterministic anti-entropy resource registry.
///
/// Each region `i` keeps a full view `views[i][j]` of every region `j`.
/// [`GossipRegistry::publish`] refreshes a region's own entry and bumps
/// its version; [`GossipRegistry::round`] runs one anti-entropy round:
/// every live region exchanges views with its scheduled peers (push and
/// pull), keeping the higher version per entry. The peer schedule is a
/// seeded rotation: round `r` pairs `i` with `(i + stride) mod n` where
/// `stride` walks a seeded permutation of `1..n`, so every pair meets
/// directly once per `n - 1` rounds and transitive merges spread
/// adverts even faster.
#[derive(Debug, Clone)]
pub struct GossipRegistry {
    n: usize,
    cfg: GossipConfig,
    round: u64,
    views: Vec<Vec<Option<ViewEntry>>>,
}

impl GossipRegistry {
    /// An empty registry over `n` regions.
    pub fn new(n: usize, cfg: GossipConfig) -> Self {
        GossipRegistry {
            n,
            cfg: GossipConfig { fanout: cfg.fanout.max(1), ..cfg },
            round: 0,
            views: vec![vec![None; n]; n],
        }
    }

    /// Number of regions.
    pub fn region_count(&self) -> usize {
        self.n
    }

    /// Completed gossip rounds.
    pub fn round_index(&self) -> u64 {
        self.round
    }

    /// Publishes a region's fresh digest into its own view, stamping
    /// the next version. Peers learn it through subsequent rounds.
    pub fn publish(&mut self, region: RegionId, mut digest: RegionDigest) {
        let i = region.index();
        let version =
            self.views[i][i].as_ref().map(|e| e.digest.version).unwrap_or(0).saturating_add(1);
        digest.region = region;
        digest.version = version;
        self.views[i][i] = Some(ViewEntry { digest, published_round: self.round });
    }

    /// The stride used by fanout slot `k` of `round`: a seeded
    /// permutation of `1..n`, rotated one position per round so a full
    /// window of `n - 1` rounds covers every pair.
    fn stride(&self, round: u64, k: usize) -> usize {
        let m = self.n - 1;
        let window = round / m as u64;
        // Seeded Fisher-Yates over [1, n): the permutation changes per
        // window, the coverage guarantee holds within each window.
        let mut perm: Vec<usize> = (1..self.n).collect();
        for i in (1..m).rev() {
            let j = (mix(self.cfg.seed ^ window.wrapping_mul(0xD6E8_FEB8_6659_FD93) ^ i as u64)
                % (i as u64 + 1)) as usize;
            perm.swap(i, j);
        }
        let pos = (round as usize + k) % m;
        perm[pos]
    }

    /// One anti-entropy round with every region live.
    pub fn round(&mut self) {
        self.round_with_churn(&[]);
    }

    /// One anti-entropy round with the listed regions down: a down
    /// region neither initiates nor answers an exchange (its stored
    /// view survives, it just cannot spread or learn this round).
    pub fn round_with_churn(&mut self, down: &[RegionId]) {
        if self.n > 1 {
            let is_down = |i: usize| down.iter().any(|r| r.index() == i);
            for k in 0..self.cfg.fanout {
                let stride = self.stride(self.round, k);
                for i in 0..self.n {
                    let j = (i + stride) % self.n;
                    if i == j || is_down(i) || is_down(j) {
                        continue;
                    }
                    self.exchange(i, j);
                }
            }
        }
        self.round += 1;
    }

    /// Push-pull merge of two views: each side keeps, per region, the
    /// entry with the higher version.
    fn exchange(&mut self, a: usize, b: usize) {
        for m in 0..self.n {
            let va = self.views[a][m].clone();
            let vb = self.views[b][m].clone();
            let newer = match (&va, &vb) {
                (Some(x), Some(y)) => {
                    if fresher(y, x) {
                        vb.clone()
                    } else {
                        va.clone()
                    }
                }
                (Some(_), None) => va.clone(),
                (None, Some(_)) => vb.clone(),
                (None, None) => None,
            };
            self.views[a][m] = newer.clone();
            self.views[b][m] = newer;
        }
    }

    /// Region `of` as seen by `by` (None until anything was learned).
    pub fn view(&self, by: RegionId, of: RegionId) -> Option<&ViewEntry> {
        self.views[by.index()][of.index()].as_ref()
    }

    /// Rounds since the digest `by` holds for `of` was published at its
    /// origin — the staleness the federation battery bounds. `None`
    /// until `by` has learned anything about `of`.
    pub fn staleness(&self, by: RegionId, of: RegionId) -> Option<u64> {
        self.view(by, of).map(|e| self.round.saturating_sub(e.published_round))
    }
}

/// `b` strictly fresher than `a` (mutation hook: the seeded
/// stale-merge/blind-award bug lives in [`run_auction`], not here).
fn fresher(b: &ViewEntry, a: &ViewEntry) -> bool {
    b.digest.version > a.digest.version
}

/// What an overloaded region asks its peers to absorb.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstQuery {
    /// Work of the bursted stage, megacycles.
    pub work_mc: f64,
    /// Input payload shipped per task, bytes.
    pub input_bytes: u64,
    /// Memory footprint of the stage, MiB.
    pub mem_mb: u64,
    /// Minimum Table II security tier of the executing node.
    pub min_tier: u8,
    /// Minimum advertised headroom to consider a peer at all, Mc/s.
    pub min_headroom_mc_per_s: f64,
}

/// One sealed bid: a peer region's offer, priced from its gossip
/// advert plus the soliciting region's own WAN estimates.
#[derive(Debug, Clone, PartialEq)]
pub struct SealedBid {
    /// The bidding region.
    pub region: RegionId,
    /// The node that would execute bursted tasks.
    pub node: Option<NodeId>,
    /// Advertised free compute, Mc/s.
    pub headroom_mc_per_s: f64,
    /// Security tier of the offered node.
    pub security_tier: u8,
    /// Free memory on the offered node, MiB.
    pub mem_free_mb: u64,
    /// Whether the bid is backed by a published digest (version ≥ 1).
    /// Placeholder bids for silent regions carry `false`.
    pub advertised: bool,
    /// Estimated WAN transfer per task, µs.
    pub transfer_us: f64,
    /// Table II handshake cost to open the inter-region channel, µs.
    pub handshake_us: f64,
    /// Queueing + service estimate on the offered node, µs.
    pub eta_us: f64,
}

impl SealedBid {
    /// The bid's total per-task cost in microseconds.
    pub fn cost_us(&self) -> f64 {
        self.transfer_us + self.handshake_us + self.eta_us
    }

    /// Whether the bid can serve the query at all: it must be backed by
    /// a real advert, name a target node, clear the security tier,
    /// fit the memory footprint and offer the minimum headroom.
    pub fn feasible(&self, query: &BurstQuery) -> bool {
        self.advertised
            && self.node.is_some()
            && self.security_tier >= query.min_tier
            && self.mem_free_mb >= query.mem_mb
            && self.headroom_mc_per_s >= query.min_headroom_mc_per_s
    }
}

/// Builds the bid a peer's gossip advert supports: `None` entries (the
/// peer never advertised, or the view is older than `staleness_limit`
/// rounds) yield an explicitly infeasible placeholder bid, so the
/// auction sees every peer and the feasibility filter — not absence —
/// rejects silent ones.
pub fn bid_from_view(
    region: RegionId,
    entry: Option<&ViewEntry>,
    staleness: Option<u64>,
    staleness_limit: u64,
    transfer_us: f64,
    handshake_us: f64,
    work_service_us: impl Fn(&RegionDigest) -> f64,
) -> SealedBid {
    let fresh = entry.is_some() && staleness.is_some_and(|s| s <= staleness_limit);
    match entry {
        Some(e) if fresh => SealedBid {
            region,
            node: e.digest.best_node,
            headroom_mc_per_s: e.digest.free_mc_per_s,
            security_tier: e.digest.security_tier,
            mem_free_mb: e.digest.best_mem_free_mb,
            advertised: e.digest.version > 0,
            transfer_us,
            handshake_us,
            eta_us: e.digest.best_backlog_us + work_service_us(&e.digest),
        },
        _ => SealedBid {
            region,
            node: None,
            headroom_mc_per_s: 0.0,
            security_tier: 0,
            mem_free_mb: 0,
            advertised: false,
            transfer_us,
            handshake_us,
            eta_us: 0.0,
        },
    }
}

/// Runs the sealed-bid auction: the cost-minimal feasible bid wins,
/// ties broken on region id. Deterministic by construction — same
/// query, same bids, same winner — which the federation battery
/// property-tests and the `mc` federation model exhausts.
pub fn run_auction<'a>(query: &BurstQuery, bids: &'a [SealedBid]) -> Option<&'a SealedBid> {
    #[cfg(any(test, feature = "mc-mutations"))]
    let blind = crate::mutation::federation_blind_award();
    #[cfg(not(any(test, feature = "mc-mutations")))]
    let blind = false;
    bids.iter()
        .filter(|b| blind || b.feasible(query))
        .min_by(|a, b| a.cost_us().total_cmp(&b.cost_us()).then(a.region.cmp(&b.region)))
}

/// Award ledger shared by the MIRTO federation tier and the `mc`
/// model: at most one live award per query key. The manager keys it by
/// application id; the model checker interleaves award/release calls
/// and asserts no key is ever double-awarded.
#[derive(Debug, Clone, Default)]
pub struct AuctionBook {
    awarded: BTreeMap<u64, RegionId>,
}

impl AuctionBook {
    /// An empty ledger.
    pub fn new() -> Self {
        AuctionBook::default()
    }

    /// Records an award for `key`.
    ///
    /// # Errors
    ///
    /// Returns the already-recorded winner if `key` is still awarded —
    /// the caller must [`AuctionBook::release`] first.
    pub fn award(&mut self, key: u64, region: RegionId) -> Result<(), RegionId> {
        match self.awarded.get(&key) {
            Some(&prev) => Err(prev),
            None => {
                self.awarded.insert(key, region);
                Ok(())
            }
        }
    }

    /// The live award for `key`, if any.
    pub fn winner(&self, key: u64) -> Option<RegionId> {
        self.awarded.get(&key).copied()
    }

    /// Releases `key`'s award (closing the burst), returning it.
    pub fn release(&mut self, key: u64) -> Option<RegionId> {
        self.awarded.remove(&key)
    }

    /// Number of live awards.
    pub fn live(&self) -> usize {
        self.awarded.len()
    }
}

/// A federation of regional continuums sharing one simulation core:
/// the aggregate [`Continuum`] (all regions' nodes) plus per-region
/// layer bookkeeping and the WAN ingress of each region.
#[derive(Debug)]
pub struct FederatedContinuum {
    continuum: Continuum,
    regions: Vec<BuiltRegion>,
}

impl FederatedContinuum {
    /// The aggregate continuum over every region.
    pub fn continuum(&self) -> &Continuum {
        &self.continuum
    }

    /// Mutable aggregate continuum (what the engine runs against).
    pub fn continuum_mut(&mut self) -> &mut Continuum {
        &mut self.continuum
    }

    /// Mutable simulation core.
    pub fn sim_mut(&mut self) -> &mut SimCore {
        self.continuum.sim_mut()
    }

    /// Per-region layer bookkeeping.
    pub fn regions(&self) -> &[BuiltRegion] {
        &self.regions
    }

    /// Number of regions.
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }
}

/// Builds N copies of the reference region into one core, WAN-meshed
/// through their ingress nodes.
///
/// # Examples
///
/// ```
/// use myrtus_continuum::federation::FederatedContinuumBuilder;
///
/// let fed = FederatedContinuumBuilder::new().regions(3).build();
/// assert_eq!(fed.region_count(), 3);
/// assert_eq!(fed.continuum().all_nodes().len(), 33);
/// ```
#[derive(Debug, Clone)]
pub struct FederatedContinuumBuilder {
    regions: usize,
    region: ContinuumBuilder,
    wan: HopSpec,
}

impl Default for FederatedContinuumBuilder {
    fn default() -> Self {
        FederatedContinuumBuilder {
            regions: 3,
            region: ContinuumBuilder::new(),
            wan: HopSpec::new(SimDuration::from_millis(40), 200.0),
        }
    }
}

impl FederatedContinuumBuilder {
    /// The default federation: 3 reference regions, 40 ms / 200 Mbit/s
    /// WAN links.
    pub fn new() -> Self {
        FederatedContinuumBuilder::default()
    }

    /// Number of regions.
    pub fn regions(mut self, n: usize) -> Self {
        self.regions = n;
        self
    }

    /// The per-region topology shape.
    pub fn region_shape(mut self, shape: ContinuumBuilder) -> Self {
        self.region = shape;
        self
    }

    /// WAN inter-region hop parameters.
    pub fn wan_hop(mut self, hop: HopSpec) -> Self {
        self.wan = hop;
        self
    }

    /// Builds the federation: every region into one core, then a WAN
    /// full mesh between region ingress nodes.
    ///
    /// # Panics
    ///
    /// Panics on zero regions or a region shape with no fog/cloud node.
    pub fn build(self) -> FederatedContinuum {
        assert!(self.regions > 0, "a federation needs at least one region");
        let mut sim = SimCore::new();
        let regions: Vec<BuiltRegion> = (0..self.regions)
            .map(|r| self.region.build_into(&mut sim, &format!("r{r}-")))
            .collect();
        for (i, a) in regions.iter().enumerate() {
            for b in regions.iter().skip(i + 1) {
                sim.network_mut().add_duplex(
                    a.ingress(),
                    b.ingress(),
                    self.wan.latency,
                    self.wan.bandwidth_mbps,
                );
            }
        }
        let mut edge = Vec::new();
        let mut gateways = Vec::new();
        let mut fmdcs = Vec::new();
        let mut cloud = Vec::new();
        for r in &regions {
            edge.extend_from_slice(&r.edge);
            gateways.extend_from_slice(&r.gateways);
            fmdcs.extend_from_slice(&r.fmdcs);
            cloud.extend_from_slice(&r.cloud);
        }
        FederatedContinuum {
            continuum: Continuum::from_parts(sim, edge, gateways, fmdcs, cloud),
            regions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(region: u16, free: f64) -> RegionDigest {
        RegionDigest {
            free_mc_per_s: free,
            best_node: Some(NodeId::from_raw(region as u32)),
            best_speed_mhz: 1000.0,
            best_mem_free_mb: 1024,
            security_tier: 2,
            ..RegionDigest::empty(RegionId::from_raw(region))
        }
    }

    #[test]
    fn publish_stamps_monotonic_versions() {
        let mut reg = GossipRegistry::new(3, GossipConfig::default());
        let r0 = RegionId::from_raw(0);
        reg.publish(r0, digest(0, 10.0));
        reg.publish(r0, digest(0, 20.0));
        let e = reg.view(r0, r0).expect("own view");
        assert_eq!(e.digest.version, 2);
        assert!((e.digest.free_mc_per_s - 20.0).abs() < 1e-12);
    }

    #[test]
    fn gossip_spreads_every_advert_within_a_window() {
        let n = 5;
        let mut reg = GossipRegistry::new(n, GossipConfig::default());
        for r in 0..n as u16 {
            reg.publish(RegionId::from_raw(r), digest(r, r as f64));
        }
        for _ in 0..(n - 1) {
            reg.round();
        }
        for by in 0..n as u16 {
            for of in 0..n as u16 {
                let s = reg
                    .staleness(RegionId::from_raw(by), RegionId::from_raw(of))
                    .expect("view learned within one window");
                assert!(s <= (n - 1) as u64, "staleness {s} of {of} by {by}");
            }
        }
    }

    #[test]
    fn gossip_rounds_are_seed_deterministic() {
        let run = |seed| {
            let mut reg = GossipRegistry::new(4, GossipConfig { seed, fanout: 1 });
            for r in 0..4u16 {
                reg.publish(RegionId::from_raw(r), digest(r, r as f64));
            }
            for _ in 0..6 {
                reg.round_with_churn(&[RegionId::from_raw(2)]);
            }
            format!("{:?}", reg.views)
        };
        assert_eq!(run(7), run(7), "equal seeds, equal views");
    }

    #[test]
    fn down_regions_neither_learn_nor_spread() {
        let mut reg = GossipRegistry::new(2, GossipConfig::default());
        let (a, b) = (RegionId::from_raw(0), RegionId::from_raw(1));
        reg.publish(a, digest(0, 1.0));
        reg.round_with_churn(&[b]);
        assert!(reg.view(b, a).is_none(), "a down region learns nothing");
        reg.round();
        assert!(reg.view(b, a).is_some(), "the next live round catches it up");
    }

    #[test]
    fn auction_picks_cost_minimal_feasible_bid() {
        let query = BurstQuery {
            work_mc: 5.0,
            input_bytes: 4096,
            mem_mb: 64,
            min_tier: 1,
            min_headroom_mc_per_s: 1.0,
        };
        let bid = |region: u16, cost: f64, advertised: bool| SealedBid {
            region: RegionId::from_raw(region),
            node: Some(NodeId::from_raw(region as u32)),
            headroom_mc_per_s: 10.0,
            security_tier: 2,
            mem_free_mb: 128,
            advertised,
            transfer_us: cost,
            handshake_us: 0.0,
            eta_us: 0.0,
        };
        // The cheapest bid is unbacked: feasibility must reject it.
        let bids = vec![bid(0, 1.0, false), bid(1, 30.0, true), bid(2, 20.0, true)];
        let win = run_auction(&query, &bids).expect("a feasible bid exists");
        assert_eq!(win.region, RegionId::from_raw(2));
        // Ties break on region id.
        let tied = vec![bid(2, 20.0, true), bid(1, 20.0, true)];
        assert_eq!(run_auction(&query, &tied).map(|b| b.region), Some(RegionId::from_raw(1)));
    }

    #[test]
    fn auction_book_rejects_double_awards() {
        let mut book = AuctionBook::new();
        let (a, b) = (RegionId::from_raw(0), RegionId::from_raw(1));
        assert!(book.award(7, a).is_ok());
        assert_eq!(book.award(7, b), Err(a), "live award blocks a second");
        assert_eq!(book.winner(7), Some(a));
        assert_eq!(book.release(7), Some(a));
        assert!(book.award(7, b).is_ok(), "released keys can be re-awarded");
    }

    #[test]
    fn federated_topology_routes_across_regions() {
        let mut fed = FederatedContinuumBuilder::new().regions(3).build();
        let (e0, far) = (fed.regions()[0].edge[0], fed.regions()[2].fmdcs[0]);
        assert!(fed.sim_mut().network().route(e0, far).is_ok(), "WAN mesh connects regions");
        // Names are region-prefixed, so exports disambiguate regions.
        let sim = fed.continuum().sim();
        let name = sim.node(fed.regions()[1].edge[0]).expect("exists").spec().name().to_string();
        assert!(name.starts_with("r1-"), "{name}");
    }

    #[test]
    fn stale_views_yield_infeasible_placeholder_bids() {
        let mut reg = GossipRegistry::new(2, GossipConfig::default());
        let (a, b) = (RegionId::from_raw(0), RegionId::from_raw(1));
        reg.publish(b, digest(1, 50.0));
        reg.round();
        // Age the view far past the limit without republishing.
        for _ in 0..10 {
            reg.round_with_churn(&[b]);
        }
        let query = BurstQuery {
            work_mc: 1.0,
            input_bytes: 0,
            mem_mb: 0,
            min_tier: 0,
            min_headroom_mc_per_s: 1.0,
        };
        let bid = bid_from_view(b, reg.view(a, b), reg.staleness(a, b), 4, 0.0, 0.0, |_| 0.0);
        assert!(!bid.feasible(&query), "stale adverts cannot win");
    }
}
