//! Network fabric: links, protocols, routing and congestion.
//!
//! The paper's infrastructure connects all layers with standard protocols
//! (HTTP, MQTT, CoAP). Links are directed, store-and-forward FIFO servers
//! with a propagation latency and a bandwidth; congestion emerges from
//! per-link queueing. Routing is shortest-path (Dijkstra) with optional
//! alternate routes so the MIRTO Network Manager can balance load.

use std::cell::RefCell;
use std::collections::hash_map::Entry;
use std::collections::BinaryHeap;

use myrtus_obs::hash::WordMap;

use crate::ids::{LinkId, MsgId, NodeId};
use crate::time::{SimDuration, SimTime};

/// Application-layer protocol carried by a message, with its overhead
/// model (header bytes and session-establishment round trips).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// HTTP over TCP+TLS-like session: heavier headers, one setup RTT on
    /// a fresh connection (amortized here as a per-message half RTT).
    Http,
    /// MQTT publish on an established session: tiny fixed header.
    Mqtt,
    /// CoAP over UDP: small header, no session setup.
    Coap,
}

impl Protocol {
    /// Protocol header overhead added to every message, in bytes.
    pub fn header_bytes(self) -> u64 {
        match self {
            Protocol::Http => 420,
            Protocol::Mqtt => 8,
            Protocol::Coap => 16,
        }
    }

    /// Extra propagation round-trips paid per message for session setup
    /// (fractional: amortized over a keep-alive connection).
    pub fn setup_rtts(self) -> f64 {
        match self {
            Protocol::Http => 0.5,
            Protocol::Mqtt => 0.0,
            Protocol::Coap => 0.0,
        }
    }
}

impl std::fmt::Display for Protocol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Protocol::Http => "http",
            Protocol::Mqtt => "mqtt",
            Protocol::Coap => "coap",
        };
        f.write_str(s)
    }
}

/// Immutable description of one directed link.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkSpec {
    from: NodeId,
    to: NodeId,
    latency: SimDuration,
    bandwidth_mbps: f64,
}

impl LinkSpec {
    /// Creates a directed link.
    ///
    /// # Panics
    ///
    /// Panics if bandwidth is not positive.
    pub fn new(from: NodeId, to: NodeId, latency: SimDuration, bandwidth_mbps: f64) -> Self {
        assert!(bandwidth_mbps > 0.0, "bandwidth must be positive");
        LinkSpec { from, to, latency, bandwidth_mbps }
    }

    /// Source node.
    pub fn from(&self) -> NodeId {
        self.from
    }

    /// Destination node.
    pub fn to(&self) -> NodeId {
        self.to
    }

    /// Propagation latency.
    pub fn latency(&self) -> SimDuration {
        self.latency
    }

    /// Bandwidth in megabits per second.
    pub fn bandwidth_mbps(&self) -> f64 {
        self.bandwidth_mbps
    }

    /// Serialization (transmission) delay for `bytes` on this link.
    pub fn tx_delay(&self, bytes: u64) -> SimDuration {
        // mbps = bits per microsecond, so bytes*8 / mbps is in µs.
        SimDuration::from_micros_f64(bytes as f64 * 8.0 / self.bandwidth_mbps)
    }
}

/// Mutable per-link counters and FIFO occupancy.
#[derive(Debug, Clone)]
pub struct LinkState {
    next_free: SimTime,
    bytes_sent: u64,
    messages: u64,
    busy: SimDuration,
    up: bool,
    drops: u64,
}

impl Default for LinkState {
    fn default() -> Self {
        LinkState {
            next_free: SimTime::ZERO,
            bytes_sent: 0,
            messages: 0,
            busy: SimDuration::ZERO,
            up: true,
            drops: 0,
        }
    }
}

impl LinkState {
    /// Total payload+header bytes transmitted.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Messages transmitted.
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// Accumulated transmission (busy) time.
    pub fn busy(&self) -> SimDuration {
        self.busy
    }

    /// Instant the link becomes free for the next frame.
    pub fn next_free(&self) -> SimTime {
        self.next_free
    }

    /// Whether the link is up.
    pub fn is_up(&self) -> bool {
        self.up
    }

    /// Messages dropped because the link was down (information loss, as
    /// the telemetry monitor reports it).
    pub fn drops(&self) -> u64 {
        self.drops
    }

    /// Link utilization over the first `horizon` of simulated time.
    pub fn utilization(&self, horizon: SimDuration) -> f64 {
        if horizon.is_zero() {
            0.0
        } else {
            (self.busy.as_secs_f64() / horizon.as_secs_f64()).min(1.0)
        }
    }
}

/// One network message in flight.
#[derive(Debug, Clone, PartialEq)]
pub struct Message {
    /// Unique message id.
    pub id: MsgId,
    /// Sender node.
    pub src: NodeId,
    /// Receiver node.
    pub dst: NodeId,
    /// Application payload size, in bytes.
    pub payload_bytes: u64,
    /// Carried protocol.
    pub protocol: Protocol,
    /// When the message entered the network.
    pub sent: SimTime,
    /// Opaque correlation tag for the driver.
    pub tag: u64,
}

/// Errors returned by [`Network`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetworkError {
    /// No route exists between the two nodes.
    NoRoute {
        /// Source node.
        from: NodeId,
        /// Destination node.
        to: NodeId,
    },
    /// A referenced link does not exist.
    UnknownLink(LinkId),
}

impl std::fmt::Display for NetworkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetworkError::NoRoute { from, to } => {
                write!(f, "no route from {from} to {to}")
            }
            NetworkError::UnknownLink(l) => write!(f, "unknown link {l}"),
        }
    }
}

impl std::error::Error for NetworkError {}

/// The directed network fabric.
///
/// # Examples
///
/// ```
/// use myrtus_continuum::ids::NodeId;
/// use myrtus_continuum::net::{LinkSpec, Network, Protocol};
/// use myrtus_continuum::time::{SimDuration, SimTime};
///
/// let mut net = Network::new();
/// let a = NodeId::from_raw(0);
/// let b = NodeId::from_raw(1);
/// net.add_duplex(a, b, SimDuration::from_millis(2), 100.0);
/// let path = net.route(a, b)?;
/// assert_eq!(path.len(), 1);
/// let eta = net.transfer(SimTime::ZERO, &path, 1_000, Protocol::Mqtt);
/// assert!(eta > SimTime::from_millis(2));
/// # Ok::<(), myrtus_continuum::net::NetworkError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Network {
    links: Vec<LinkSpec>,
    states: Vec<LinkState>,
    out_edges: WordMap<NodeId, Vec<LinkId>>,
    epoch: u64,
}

impl Network {
    /// Creates an empty network.
    pub fn new() -> Self {
        Network::default()
    }

    /// Adds one directed link and returns its id.
    pub fn add_link(&mut self, spec: LinkSpec) -> LinkId {
        let id = LinkId::from_raw(self.links.len() as u32);
        self.out_edges.entry(spec.from()).or_default().push(id);
        self.links.push(spec);
        self.states.push(LinkState::default());
        self.epoch += 1;
        id
    }

    /// Adds a symmetric pair of links and returns their ids
    /// (`(a→b, b→a)`).
    pub fn add_duplex(
        &mut self,
        a: NodeId,
        b: NodeId,
        latency: SimDuration,
        bandwidth_mbps: f64,
    ) -> (LinkId, LinkId) {
        let ab = self.add_link(LinkSpec::new(a, b, latency, bandwidth_mbps));
        let ba = self.add_link(LinkSpec::new(b, a, latency, bandwidth_mbps));
        (ab, ba)
    }

    /// Number of directed links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// The spec of a link.
    pub fn link(&self, id: LinkId) -> Option<&LinkSpec> {
        self.links.get(id.index())
    }

    /// The runtime counters of a link.
    pub fn link_state(&self, id: LinkId) -> Option<&LinkState> {
        self.states.get(id.index())
    }

    /// Cuts or restores a link (both routing and transfers honor it).
    pub fn set_link_up(&mut self, id: LinkId, up: bool) {
        if let Some(st) = self.states.get_mut(id.index()) {
            if st.up != up {
                st.up = up;
                self.epoch += 1;
            }
        }
    }

    /// Monotonic mutation counter: bumped on every change that can alter
    /// routing or transfer estimates (new links, link up/down, FIFO queue
    /// occupancy from [`Network::transfer`]). [`RouteCache`] entries are
    /// valid only for the epoch they were computed under.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether every link of `path` is currently up.
    pub fn path_up(&self, path: &[LinkId]) -> bool {
        path.iter().all(|l| self.states.get(l.index()).map(|s| s.up).unwrap_or(false))
    }

    /// Iterates over `(id, spec, state)` for every link.
    pub fn iter_links(&self) -> impl Iterator<Item = (LinkId, &LinkSpec, &LinkState)> {
        self.links
            .iter()
            .zip(self.states.iter())
            .enumerate()
            .map(|(i, (spec, state))| (LinkId::from_raw(i as u32), spec, state))
    }

    /// Shortest path (by propagation latency + serialization of a 1 KiB
    /// reference frame) from `from` to `to`.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::NoRoute`] when `to` is unreachable.
    pub fn route(&self, from: NodeId, to: NodeId) -> Result<Vec<LinkId>, NetworkError> {
        self.route_avoiding(from, to, &[])
    }

    /// Shortest path avoiding the given links; used to find alternate
    /// routes for load balancing.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::NoRoute`] when `to` is unreachable without
    /// the avoided links.
    pub fn route_avoiding(
        &self,
        from: NodeId,
        to: NodeId,
        avoid: &[LinkId],
    ) -> Result<Vec<LinkId>, NetworkError> {
        if from == to {
            return Ok(Vec::new());
        }
        // Dijkstra over microsecond weights.
        let mut dist: WordMap<NodeId, u64> = WordMap::default();
        let mut prev: WordMap<NodeId, LinkId> = WordMap::default();
        let mut heap: BinaryHeap<std::cmp::Reverse<(u64, NodeId)>> = BinaryHeap::new();
        dist.insert(from, 0);
        heap.push(std::cmp::Reverse((0, from)));
        while let Some(std::cmp::Reverse((d, u))) = heap.pop() {
            if u == to {
                break;
            }
            if dist.get(&u).copied().unwrap_or(u64::MAX) < d {
                continue;
            }
            for &lid in self.out_edges.get(&u).into_iter().flatten() {
                if avoid.contains(&lid) || !self.states[lid.index()].up {
                    continue;
                }
                let spec = &self.links[lid.index()];
                let w = spec.latency().as_micros() + spec.tx_delay(1_024).as_micros();
                let nd = d.saturating_add(w.max(1));
                let v = spec.to();
                if nd < dist.get(&v).copied().unwrap_or(u64::MAX) {
                    dist.insert(v, nd);
                    prev.insert(v, lid);
                    heap.push(std::cmp::Reverse((nd, v)));
                }
            }
        }
        if !prev.contains_key(&to) {
            return Err(NetworkError::NoRoute { from, to });
        }
        let mut path = Vec::new();
        let mut cur = to;
        while cur != from {
            let lid = prev[&cur];
            path.push(lid);
            cur = self.links[lid.index()].from();
        }
        path.reverse();
        Ok(path)
    }

    /// An alternate route that avoids the first link of the primary route,
    /// if one exists.
    pub fn alternate_route(&self, from: NodeId, to: NodeId) -> Option<Vec<LinkId>> {
        let primary = self.route(from, to).ok()?;
        let first = *primary.first()?;
        self.route_avoiding(from, to, &[first]).ok()
    }

    /// Simulates a store-and-forward transfer of `payload` bytes along
    /// `path` starting at `now`, charging each link's FIFO queue, and
    /// returns the delivery instant.
    ///
    /// An empty path (local delivery) returns `now`.
    pub fn transfer(
        &mut self,
        now: SimTime,
        path: &[LinkId],
        payload: u64,
        protocol: Protocol,
    ) -> SimTime {
        let wire_bytes = payload + protocol.header_bytes();
        // Queue occupancy (next_free) feeds plan-time estimates, so a
        // real transfer invalidates cached ones.
        if !path.is_empty() {
            self.epoch += 1;
        }
        let mut t = now;
        // Session setup cost: extra RTTs on the whole path's propagation.
        let setup = protocol.setup_rtts();
        if setup > 0.0 {
            let rtt: SimDuration = path
                .iter()
                .map(|l| self.links[l.index()].latency())
                .sum::<SimDuration>()
                .mul_f64(2.0);
            t += rtt.mul_f64(setup);
        }
        for lid in path {
            let spec = self.links[lid.index()].clone();
            let state = &mut self.states[lid.index()];
            if !state.up {
                // Information loss: the frame dies at the cut link. The
                // caller still gets an "arrival" instant far in the
                // future via SimTime::MAX semantics handled by callers
                // that checked path_up; count the drop here.
                state.drops += 1;
                return SimTime::MAX;
            }
            let depart = t.max(state.next_free);
            let tx = spec.tx_delay(wire_bytes);
            state.next_free = depart + tx;
            state.bytes_sent += wire_bytes;
            state.messages += 1;
            state.busy += tx;
            t = depart + tx + spec.latency();
        }
        t
    }

    /// Estimated delivery time without mutating link queues (for planning).
    pub fn estimate_transfer(
        &self,
        now: SimTime,
        path: &[LinkId],
        payload: u64,
        protocol: Protocol,
    ) -> SimTime {
        let wire_bytes = payload + protocol.header_bytes();
        let mut t = now;
        let setup = protocol.setup_rtts();
        if setup > 0.0 {
            let rtt: SimDuration = path
                .iter()
                .map(|l| self.links[l.index()].latency())
                .sum::<SimDuration>()
                .mul_f64(2.0);
            t += rtt.mul_f64(setup);
        }
        for lid in path {
            let spec = &self.links[lid.index()];
            let state = &self.states[lid.index()];
            let depart = t.max(state.next_free);
            t = depart + spec.tx_delay(wire_bytes) + spec.latency();
        }
        t
    }
}

/// Memo of plan-time routing and transfer-estimate results.
///
/// Placement search, design-space exploration and controller evolution
/// all score hundreds of candidate placements against the same network
/// snapshot, and every DAG edge of every candidate re-runs Dijkstra plus
/// a store-and-forward walk for a handful of distinct
/// `(from, to, bytes)` triples. The cache memoizes both:
///
/// * `route(from, to)` → shortest path (or "unreachable"), keyed by the
///   network [`Network::epoch`];
/// * `(from, to, bytes, protocol)` → delivery estimate, keyed by the
///   epoch **and** the plan instant `now` (queue occupancy shifts
///   estimates as simulated time advances).
///
/// Byte counts are used as exact (degenerate) bucket keys: DAG edges
/// reuse a small set of payload sizes, and exact keys keep cached
/// results bit-identical to the uncached path, so a plan makes the same
/// decisions with or without the cache.
///
/// A stale snapshot clears the memo on the next lookup, so a long-lived
/// cache (e.g. owned by an orchestration engine across monitoring
/// rounds) is always safe to reuse. The memos sit in `RefCell`s, so
/// evaluators use the cache through shared references; the planners run
/// on one thread, so no lookup takes a lock, and the cache is `!Sync`
/// (and, through its [`Obs`](myrtus_obs::Obs) handle, `!Send`) on
/// purpose. Both tables hash their small-integer keys with
/// [`WordHasher`](myrtus_obs::hash::WordHasher).
#[derive(Debug, Default)]
pub struct RouteCache {
    routes: RefCell<RouteMemo>,
    estimates: RefCell<EstimateMemo>,
    obs: myrtus_obs::Obs,
}

#[derive(Debug, Default)]
struct RouteMemo {
    epoch: u64,
    paths: WordMap<(NodeId, NodeId), Option<Vec<LinkId>>>,
    hits: u64,
    misses: u64,
}

#[derive(Debug, Default)]
struct EstimateMemo {
    epoch: u64,
    now: SimTime,
    table: WordMap<(NodeId, NodeId, u64, Protocol), Option<SimTime>>,
    hits: u64,
    misses: u64,
}

/// Hit/miss counters of a [`RouteCache`], for benchmarks and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Route lookups served from the memo.
    pub route_hits: u64,
    /// Route lookups that ran Dijkstra.
    pub route_misses: u64,
    /// Transfer estimates served from the memo.
    pub estimate_hits: u64,
    /// Transfer estimates that walked the path.
    pub estimate_misses: u64,
}

impl RouteCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        RouteCache::default()
    }

    /// Creates an empty cache that records metrics through `obs`.
    ///
    /// Only the deterministic `route_cache_invalidations` counter
    /// (labels `route` / `estimate`, bumped once per observed topology
    /// epoch change per memo) goes through the observability layer; the
    /// raw hit/miss counters stay in [`CacheStats`] because they describe
    /// the host-side memo, not the simulated run: they move whenever a
    /// cache is attached, dropped or kept alive longer, while every
    /// decision stays the same.
    pub fn with_obs(obs: myrtus_obs::Obs) -> Self {
        RouteCache { obs, ..RouteCache::default() }
    }

    /// Memoized [`Network::route`].
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::NoRoute`] when `to` is unreachable (the
    /// negative result is cached too).
    pub fn route(
        &self,
        net: &Network,
        from: NodeId,
        to: NodeId,
    ) -> Result<Vec<LinkId>, NetworkError> {
        self.with_route(net, from, to, |path| path.map(<[LinkId]>::to_vec))
            .ok_or(NetworkError::NoRoute { from, to })
    }

    /// Runs `f` on the memoized shortest path from `from` to `to`
    /// (`None` when unreachable) while the memo lends it, so a caller
    /// that only reads the path never copies it.
    fn with_route<R>(
        &self,
        net: &Network,
        from: NodeId,
        to: NodeId,
        f: impl FnOnce(Option<&[LinkId]>) -> R,
    ) -> R {
        let mut memo = self.routes.borrow_mut();
        let memo = &mut *memo;
        if memo.epoch != net.epoch() {
            // Count only real invalidations: discarding cached entries
            // because the topology epoch moved (a fresh, empty memo
            // adopting the current epoch discards nothing).
            if !memo.paths.is_empty() {
                self.obs.counter_inc("route_cache_invalidations", "route");
            }
            memo.paths.clear();
            memo.epoch = net.epoch();
        }
        let path = match memo.paths.entry((from, to)) {
            Entry::Occupied(hit) => {
                memo.hits += 1;
                hit.into_mut()
            }
            Entry::Vacant(miss) => {
                memo.misses += 1;
                miss.insert(net.route(from, to).ok())
            }
        };
        f(path.as_deref())
    }

    /// Memoized [`Network::estimate_transfer`] over the memoized route.
    ///
    /// Returns the delivery instant, or `None` when `to` is unreachable.
    pub fn estimate(
        &self,
        net: &Network,
        now: SimTime,
        from: NodeId,
        to: NodeId,
        payload: u64,
        protocol: Protocol,
    ) -> Option<SimTime> {
        let mut memo = self.estimates.borrow_mut();
        if memo.epoch != net.epoch() || memo.now != now {
            // Only topology epoch changes over a non-empty memo count
            // as invalidations; the memo also resets when the plan
            // instant advances, which is ordinary time progress, not
            // staleness.
            if memo.epoch != net.epoch() && !memo.table.is_empty() {
                self.obs.counter_inc("route_cache_invalidations", "estimate");
            }
            memo.table.clear();
            memo.epoch = net.epoch();
            memo.now = now;
        }
        if let Some(cached) = memo.table.get(&(from, to, payload, protocol)).copied() {
            memo.hits += 1;
            return cached;
        }
        memo.misses += 1;
        let eta = self.with_route(net, from, to, |path| {
            path.map(|path| net.estimate_transfer(now, path, payload, protocol))
        });
        memo.table.insert((from, to, payload, protocol), eta);
        eta
    }

    /// Snapshot of the hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        let routes = self.routes.borrow();
        let estimates = self.estimates.borrow();
        CacheStats {
            route_hits: routes.hits,
            route_misses: routes.misses,
            estimate_hits: estimates.hits,
            estimate_misses: estimates.misses,
        }
    }
}

/// Cheap, copyable handle binding a [`Network`], a plan instant and a
/// [`RouteCache`]: the object plan-time evaluators thread through
/// candidate scoring.
///
/// All lookups go through the cache; results are exactly what the
/// uncached [`Network::route`]/[`Network::estimate_transfer`] pair
/// returns for the same snapshot.
#[derive(Debug, Clone, Copy)]
pub struct PlanEstimator<'a> {
    net: &'a Network,
    now: SimTime,
    cache: &'a RouteCache,
}

impl<'a> PlanEstimator<'a> {
    /// Binds a network snapshot at `now` to a cache.
    pub fn new(net: &'a Network, now: SimTime, cache: &'a RouteCache) -> Self {
        PlanEstimator { net, now, cache }
    }

    /// The plan instant estimates are computed at.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The underlying network.
    pub fn network(&self) -> &'a Network {
        self.net
    }

    /// Memoized shortest path.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::NoRoute`] when `to` is unreachable.
    pub fn route(&self, from: NodeId, to: NodeId) -> Result<Vec<LinkId>, NetworkError> {
        self.cache.route(self.net, from, to)
    }

    /// Memoized delivery instant for a transfer starting at the plan
    /// instant; `None` when `to` is unreachable.
    pub fn transfer_eta(
        &self,
        from: NodeId,
        to: NodeId,
        payload: u64,
        protocol: Protocol,
    ) -> Option<SimTime> {
        self.cache.estimate(self.net, self.now, from, to, payload, protocol)
    }

    /// Memoized transfer duration in microseconds: `0` when co-located
    /// or empty, `+∞` when unreachable.
    pub fn transfer_us(&self, from: NodeId, to: NodeId, payload: u64, protocol: Protocol) -> f64 {
        if from == to || payload == 0 {
            return 0.0;
        }
        match self.transfer_eta(from, to, payload, protocol) {
            Some(eta) => eta.saturating_since(self.now).as_micros() as f64,
            None => f64::INFINITY,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::from_raw(i)
    }

    fn line3() -> Network {
        // 0 -- 1 -- 2
        let mut net = Network::new();
        net.add_duplex(n(0), n(1), SimDuration::from_millis(1), 100.0);
        net.add_duplex(n(1), n(2), SimDuration::from_millis(5), 50.0);
        net
    }

    #[test]
    fn route_finds_multi_hop_path() {
        let net = line3();
        let path = net.route(n(0), n(2)).expect("reachable");
        assert_eq!(path.len(), 2);
        assert_eq!(net.link(path[0]).map(LinkSpec::from), Some(n(0)));
        assert_eq!(net.link(path[1]).map(LinkSpec::to), Some(n(2)));
    }

    #[test]
    fn route_to_self_is_empty() {
        let net = line3();
        assert!(net.route(n(1), n(1)).expect("trivial").is_empty());
    }

    #[test]
    fn unreachable_destination_errors() {
        let net = line3();
        let err = net.route(n(0), n(9)).expect_err("no route");
        assert!(matches!(err, NetworkError::NoRoute { .. }));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn transfer_accumulates_latency_and_tx() {
        let mut net = line3();
        let path = net.route(n(0), n(2)).expect("reachable");
        let eta = net.transfer(SimTime::ZERO, &path, 125_000, Protocol::Mqtt);
        // ≥ 6ms propagation + 1Mbit/100Mbps=10ms + 1Mbit/50Mbps=20ms ≈ 36ms.
        let ms = eta.as_millis_f64();
        assert!(ms > 35.0 && ms < 38.0, "eta {ms}ms");
    }

    #[test]
    fn fifo_queue_delays_back_to_back_messages() {
        let mut net = line3();
        let path = net.route(n(0), n(1)).expect("reachable");
        let first = net.transfer(SimTime::ZERO, &path, 125_000, Protocol::Mqtt);
        let second = net.transfer(SimTime::ZERO, &path, 125_000, Protocol::Mqtt);
        assert!(second > first, "second message queues behind the first");
    }

    #[test]
    fn estimate_matches_transfer_without_mutation() {
        let mut net = line3();
        let path = net.route(n(0), n(2)).expect("reachable");
        let est = net.estimate_transfer(SimTime::ZERO, &path, 4_096, Protocol::Coap);
        let act = net.transfer(SimTime::ZERO, &path, 4_096, Protocol::Coap);
        assert_eq!(est, act);
    }

    #[test]
    fn http_overhead_exceeds_mqtt() {
        let net = line3();
        let path = net.route(n(0), n(2)).expect("reachable");
        let mqtt = net.estimate_transfer(SimTime::ZERO, &path, 1_000, Protocol::Mqtt);
        let http = net.estimate_transfer(SimTime::ZERO, &path, 1_000, Protocol::Http);
        assert!(http > mqtt);
    }

    #[test]
    fn alternate_route_avoids_primary_first_link() {
        // Triangle 0-1, 1-2, 0-2 (slow direct link).
        let mut net = Network::new();
        net.add_duplex(n(0), n(1), SimDuration::from_millis(1), 100.0);
        net.add_duplex(n(1), n(2), SimDuration::from_millis(1), 100.0);
        net.add_duplex(n(0), n(2), SimDuration::from_millis(50), 10.0);
        let primary = net.route(n(0), n(2)).expect("reachable");
        assert_eq!(primary.len(), 2, "two fast hops beat the slow direct link");
        let alt = net.alternate_route(n(0), n(2)).expect("triangle has an alternate");
        assert_ne!(alt, primary);
        assert_eq!(alt.len(), 1);
    }

    #[test]
    fn down_links_are_avoided_by_routing() {
        // Triangle with a fast two-hop path and a slow direct link.
        let mut net = Network::new();
        net.add_duplex(n(0), n(1), SimDuration::from_millis(1), 100.0);
        net.add_duplex(n(1), n(2), SimDuration::from_millis(1), 100.0);
        net.add_duplex(n(0), n(2), SimDuration::from_millis(50), 10.0);
        let primary = net.route(n(0), n(2)).expect("reachable");
        assert_eq!(primary.len(), 2);
        net.set_link_up(primary[0], false);
        assert!(!net.path_up(&primary));
        let detour = net.route(n(0), n(2)).expect("still reachable");
        assert_eq!(detour.len(), 1, "routing falls back to the direct link");
        // Cut everything: unreachable.
        net.set_link_up(detour[0], false);
        assert!(net.route(n(0), n(2)).is_err());
        // Restore: primary comes back.
        net.set_link_up(primary[0], true);
        assert_eq!(net.route(n(0), n(2)).expect("reachable").len(), 2);
    }

    #[test]
    fn transfers_over_cut_links_count_as_drops() {
        let mut net = line3();
        let path = net.route(n(0), n(1)).expect("reachable");
        net.set_link_up(path[0], false);
        let eta = net.transfer(SimTime::ZERO, &path, 1_000, Protocol::Mqtt);
        assert_eq!(eta, SimTime::MAX, "lost frames never arrive");
        assert_eq!(net.link_state(path[0]).expect("exists").drops(), 1);
    }

    #[test]
    fn epoch_tracks_mutations() {
        let mut net = Network::new();
        let e0 = net.epoch();
        net.add_duplex(n(0), n(1), SimDuration::from_millis(1), 100.0);
        assert!(net.epoch() > e0, "adding links bumps the epoch");
        let path = net.route(n(0), n(1)).expect("reachable");
        let e1 = net.epoch();
        net.set_link_up(path[0], true); // no change: still up
        assert_eq!(net.epoch(), e1, "redundant set_link_up is not a mutation");
        net.set_link_up(path[0], false);
        assert!(net.epoch() > e1);
        let e2 = net.epoch();
        net.set_link_up(path[0], true);
        assert!(net.epoch() > e2);
        let e3 = net.epoch();
        net.transfer(SimTime::ZERO, &path, 1_000, Protocol::Mqtt);
        assert!(net.epoch() > e3, "queue occupancy changes invalidate estimates");
    }

    #[test]
    fn route_cache_matches_uncached_and_counts_hits() {
        let net = line3();
        let cache = RouteCache::new();
        for _ in 0..3 {
            assert_eq!(
                cache.route(&net, n(0), n(2)).expect("reachable"),
                net.route(n(0), n(2)).expect("reachable"),
            );
            assert!(cache.route(&net, n(0), n(9)).is_err(), "negative result cached");
        }
        let stats = cache.stats();
        assert_eq!(stats.route_misses, 2, "one Dijkstra per distinct pair");
        assert_eq!(stats.route_hits, 4);
    }

    #[test]
    fn estimate_cache_matches_uncached() {
        let net = line3();
        let cache = RouteCache::new();
        let est = PlanEstimator::new(&net, SimTime::ZERO, &cache);
        let path = net.route(n(0), n(2)).expect("reachable");
        let expect = net.estimate_transfer(SimTime::ZERO, &path, 4_096, Protocol::Mqtt);
        for _ in 0..3 {
            assert_eq!(est.transfer_eta(n(0), n(2), 4_096, Protocol::Mqtt), Some(expect));
        }
        assert_eq!(cache.stats().estimate_misses, 1);
        assert_eq!(cache.stats().estimate_hits, 2);
        assert_eq!(est.transfer_us(n(1), n(1), 4_096, Protocol::Mqtt), 0.0);
        assert_eq!(est.transfer_us(n(0), n(2), 0, Protocol::Mqtt), 0.0);
        assert_eq!(est.transfer_us(n(0), n(9), 1, Protocol::Mqtt), f64::INFINITY);
    }

    #[test]
    fn cache_invalidates_on_link_state_change() {
        let mut net = Network::new();
        net.add_duplex(n(0), n(1), SimDuration::from_millis(1), 100.0);
        net.add_duplex(n(1), n(2), SimDuration::from_millis(1), 100.0);
        net.add_duplex(n(0), n(2), SimDuration::from_millis(50), 10.0);
        let cache = RouteCache::new();
        let fast = cache.route(&net, n(0), n(2)).expect("reachable");
        assert_eq!(fast.len(), 2);
        net.set_link_up(fast[0], false);
        let detour = cache.route(&net, n(0), n(2)).expect("still reachable");
        assert_eq!(detour.len(), 1, "stale cached path not returned after cut");
        assert_eq!(detour, net.route(n(0), n(2)).expect("reachable"));
        net.set_link_up(fast[0], true);
        assert_eq!(cache.route(&net, n(0), n(2)).expect("reachable"), fast);
    }

    #[test]
    fn estimate_cache_invalidates_on_queue_occupancy_and_now() {
        let mut net = line3();
        let cache = RouteCache::new();
        let path = net.route(n(0), n(1)).expect("reachable");
        let idle = cache
            .estimate(&net, SimTime::ZERO, n(0), n(1), 125_000, Protocol::Mqtt)
            .expect("reachable");
        // A real transfer occupies the FIFO; a fresh estimate at the same
        // instant must queue behind it, and the cache must notice.
        net.transfer(SimTime::ZERO, &path, 125_000, Protocol::Mqtt);
        let queued = cache
            .estimate(&net, SimTime::ZERO, n(0), n(1), 125_000, Protocol::Mqtt)
            .expect("reachable");
        assert!(queued > idle, "cached idle estimate would be stale");
        assert_eq!(queued, net.estimate_transfer(SimTime::ZERO, &path, 125_000, Protocol::Mqtt));
        // Advancing the plan instant also invalidates.
        let later =
            cache.estimate(&net, queued, n(0), n(1), 125_000, Protocol::Mqtt).expect("reachable");
        assert_eq!(later, net.estimate_transfer(queued, &path, 125_000, Protocol::Mqtt));
    }

    #[test]
    fn cache_invalidation_metric_counts_one_per_epoch_bump() {
        let obs = myrtus_obs::Obs::new(myrtus_obs::ObsConfig::on());
        let mut net = line3();
        let cache = RouteCache::with_obs(obs.clone());
        let probe = |cache: &RouteCache, net: &Network| {
            for (from, to) in [(0, 1), (0, 2), (1, 2)] {
                let _ = cache.route(net, n(from), n(to));
                let _ = cache.estimate(net, SimTime::ZERO, n(from), n(to), 1_000, Protocol::Mqtt);
            }
        };
        // Warm memos: adopting the initial epoch discards nothing.
        probe(&cache, &net);
        assert_eq!(obs.counter_sum("route_cache_invalidations"), 0);
        // Re-probing within the same epoch never counts.
        probe(&cache, &net);
        assert_eq!(obs.counter_sum("route_cache_invalidations"), 0);
        let link = net.route(n(0), n(1)).expect("reachable")[0];
        for (bump, up) in [(1u64, false), (2, true), (3, false)] {
            // Every link-state flip bumps the topology epoch once.
            net.set_link_up(link, up);
            probe(&cache, &net);
            assert_eq!(
                obs.counter_value("route_cache_invalidations", "route"),
                bump,
                "exactly one route invalidation per epoch bump"
            );
            assert_eq!(
                obs.counter_value("route_cache_invalidations", "estimate"),
                bump,
                "the estimate memo tracks the same epochs"
            );
            // Stable epoch again: re-probing must not move the counter.
            probe(&cache, &net);
            assert_eq!(obs.counter_sum("route_cache_invalidations"), 2 * bump);
        }
    }

    #[test]
    fn repeated_route_workload_exceeds_ninety_percent_hit_rate() {
        let net = line3();
        let cache = RouteCache::new();
        // A plan sweep keeps re-asking for the same few (src, dst)
        // pairs; everything after the first ask per pair must hit.
        for _ in 0..50 {
            for (from, to) in [(0, 1), (0, 2), (1, 2), (2, 0)] {
                let _ = cache.route(&net, n(from), n(to));
            }
        }
        let stats = cache.stats();
        assert_eq!(stats.route_misses, 4, "one Dijkstra per distinct pair");
        let total = stats.route_hits + stats.route_misses;
        let hit_rate = stats.route_hits as f64 / total as f64;
        assert!(hit_rate > 0.9, "hit rate {hit_rate:.3} over {total} lookups");
    }

    #[test]
    fn link_counters_update() {
        let mut net = line3();
        let path = net.route(n(0), n(1)).expect("reachable");
        net.transfer(SimTime::ZERO, &path, 1_000, Protocol::Coap);
        let st = net.link_state(path[0]).expect("exists");
        assert_eq!(st.messages(), 1);
        assert_eq!(st.bytes_sent(), 1_000 + Protocol::Coap.header_bytes());
        assert!(st.utilization(SimDuration::from_secs(1)) > 0.0);
    }
}
