//! The Knowledge Base facade used by MIRTO agents.
//!
//! Paper Sect. III: "all layers will share one ontological KB (logical
//! view), which can be distributed in different layers (implementation
//! view)". [`KnowledgeBase`] is that logical view — the Resource
//! Registry as a column of per-node records, a KV store for the keys
//! the control plane writes, and a historical time-series store (the
//! same [`TimeSeriesStore`] type obs exports) — while the
//! [`raft`](crate::raft) module provides the distributed implementation
//! view whose consistency the experiments measure.

use myrtus_continuum::ids::NodeId;
use myrtus_continuum::monitor::MonitoringReport;
use myrtus_continuum::node::Layer;
use myrtus_continuum::time::SimTime;
use myrtus_obs::{SeriesId, TimeSeriesStore};

use crate::command::KvCommand;
use crate::registry::{NodeRecord, RegistryView};
use crate::store::KvStore;

/// The logical, agent-facing Knowledge Base.
///
/// The registry holds one [`NodeRecord`] per node, overwritten in place
/// by each [`KnowledgeBase::ingest_report`]; it does not live in the
/// KV store, which holds only the keys commands write, such as
/// [`KnowledgeBase::put_region`]'s.
///
/// The history holds one stream per `(series, label)`. The streams the
/// control plane reads back over time keep their newest
/// [`RETENTION`](crate::history::RETENTION) (10,000) samples: per node
/// `util` and `depth` labelled with the node name, the engine-wide
/// `deadline_miss_rate` (empty label), and whatever the control plane
/// records, such as [`KnowledgeBase::record_kpi`]'s `(kpi, app)`
/// streams and the app-point manager's `app_window_miss_rate`. The
/// streams nothing reads back, per node `energy_j` and `queue` and per
/// link `link_util` (labelled with the raw link id), keep only their
/// newest sample ([`TimeSeriesStore::set_id`]).
///
/// # Examples
///
/// ```
/// use myrtus_kb::facade::KnowledgeBase;
/// use myrtus_continuum::time::SimTime;
///
/// let mut kb = KnowledgeBase::new();
/// kb.history_mut().record("util", "cloud-0", SimTime::from_millis(1).as_micros(), 0.4);
/// assert_eq!(kb.history().latest("util", "cloud-0").map(|s| s.value), Some(0.4));
/// ```
#[derive(Debug, Clone)]
pub struct KnowledgeBase {
    store: KvStore,
    /// The registry: each node's newest record at its `NodeId::index()`.
    registry: Vec<Option<NodeRecord>>,
    history: TimeSeriesStore,
    /// The ingest's history streams, resolved when a node or link is
    /// first seen: each node's `[util, depth, energy_j, queue]` at its
    /// `NodeId::index()`, each link's `link_util` at its
    /// `LinkId::index()`.
    node_series: Vec<Option<[SeriesId; 4]>>,
    link_series: Vec<Option<SeriesId>>,
    /// `(tasks_completed, deadline_misses)` of the last ingested report:
    /// the base of the next windowed miss rate.
    reported: (u64, u64),
}

impl Default for KnowledgeBase {
    fn default() -> Self {
        KnowledgeBase::new()
    }
}

impl KnowledgeBase {
    /// Creates an empty KB.
    pub fn new() -> Self {
        KnowledgeBase {
            store: KvStore::new(),
            registry: Vec::new(),
            history: TimeSeriesStore::new(crate::history::RETENTION),
            node_series: Vec::new(),
            link_series: Vec::new(),
            reported: (0, 0),
        }
    }

    /// The underlying KV store: the keys commands write, such as
    /// [`KnowledgeBase::put_region`]'s. The registry is not in it.
    pub fn store(&self) -> &KvStore {
        &self.store
    }

    /// The historical time-series store.
    pub fn history(&self) -> &TimeSeriesStore {
        &self.history
    }

    /// Mutable history access.
    pub fn history_mut(&mut self) -> &mut TimeSeriesStore {
        &mut self.history
    }

    /// The registry read view.
    pub fn registry(&self) -> RegistryView<'_> {
        RegistryView::column(&self.registry)
    }

    /// Ingests a monitoring report: overwrites every node's registry
    /// record in place, appends its `util` and `depth` (run-queue depth)
    /// samples and the engine-wide `deadline_miss_rate` over the window
    /// since the previous report (misses / completions, 0 with no
    /// completions), and sets each node's `energy_j` and `queue` and
    /// each link's `link_util` to their newest sample.
    /// `security_tier_of` supplies each node's supported security tier
    /// (paper Table II capability).
    pub fn ingest_report(
        &mut self,
        report: &MonitoringReport,
        mut security_tier_of: impl FnMut(NodeId) -> u8,
    ) {
        let at = report.at;
        let at_us = at.as_micros();
        for snap in &report.nodes {
            let tier = security_tier_of(snap.node);
            let i = snap.node.index();
            if i >= self.registry.len() {
                self.registry.resize(i + 1, None);
                self.node_series.resize(i + 1, None);
            }
            let [util, depth, energy_j, queue] =
                match (&mut self.registry[i], &mut self.node_series[i]) {
                    (Some(record), Some(series)) if record.name == snap.name => {
                        record.update(snap, tier, at);
                        *series
                    }
                    (record, series) => {
                        *record = Some(NodeRecord::from_snapshot(snap, tier, at));
                        let h = &mut self.history;
                        *series.insert(
                            ["util", "depth", "energy_j", "queue"].map(|m| h.id(m, &snap.name)),
                        )
                    }
                };
            self.history.record_id(util, at_us, snap.utilization);
            self.history.record_id(depth, at_us, snap.run_queue_depth as f64);
            self.history.set_id(energy_j, at_us, snap.energy_j);
            self.history.set_id(queue, at_us, snap.queue_len as f64);
        }
        for link in &report.links {
            let i = link.link.index();
            if i >= self.link_series.len() {
                self.link_series.resize(i + 1, None);
            }
            let h = &mut self.history;
            let id = *self.link_series[i]
                .get_or_insert_with(|| h.id("link_util", &link.link.as_raw().to_string()));
            self.history.set_id(id, at_us, link.utilization);
        }
        let (completed, misses) = self.reported;
        let d_completed = report.tasks_completed.saturating_sub(completed);
        let d_misses = report.deadline_misses.saturating_sub(misses);
        let miss_rate = if d_completed > 0 { d_misses as f64 / d_completed as f64 } else { 0.0 };
        self.history.record("deadline_miss_rate", "", at_us, miss_rate);
        self.reported = (report.tasks_completed, report.deadline_misses);
    }

    /// Up registry nodes in a layer, least-utilized first.
    pub fn available_in_layer(&self, layer: Layer) -> Vec<NodeRecord> {
        self.registry().available_in_layer(layer)
    }

    /// Records an application-level KPI sample into the `(kpi, app)`
    /// series.
    pub fn record_kpi(&mut self, app: &str, kpi: &'static str, at: SimTime, value: f64) {
        self.history.record(kpi, app, at.as_micros(), value);
    }

    /// Writes one key into a region's shard of the federated KB
    /// namespace (`/region/{r}/{key}`). Each regional continuum owns
    /// its shard (implementation view: one Raft group per region); the
    /// logical view below stays a single ontological KB, so federation
    /// code reads peers' shards through the same store.
    pub fn put_region(&mut self, region: u16, key: &str, value: &str, at: SimTime) {
        let cmd = KvCommand::put(format!("/region/{region}/{key}"), value.as_bytes());
        self.store.apply(&cmd, at);
    }

    /// One region's full shard, in key order, values decoded as UTF-8.
    pub fn region_shard(&self, region: u16) -> Vec<(String, String)> {
        self.store
            .range(&format!("/region/{region}/"))
            .into_iter()
            .map(|(k, e)| (k.to_string(), String::from_utf8_lossy(&e.value).into_owned()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use myrtus_continuum::engine::{NullDriver, SimCore};
    use myrtus_continuum::node::NodeSpec;
    use myrtus_continuum::task::TaskInstance;
    use myrtus_continuum::topology::ContinuumBuilder;

    /// The security tier the `round`-th ingest reports for `node`: it
    /// changes every round, so a record that keeps an old tier shows.
    fn tier(round: u64, node: NodeId) -> u8 {
        ((round + node.as_raw() as u64) % 3) as u8
    }

    /// The reference continuum ingested once per 100 ms for `rounds`
    /// rounds, with a task submitted to a different node each round so
    /// utilization, queues and energy move. Returns the KB and the last
    /// report.
    fn ingested_rounds(rounds: u64) -> (KnowledgeBase, MonitoringReport) {
        let mut continuum = ContinuumBuilder::new().build();
        let sim = continuum.sim_mut();
        let mut kb = KnowledgeBase::new();
        let mut report = MonitoringReport::collect(sim);
        for round in 1..=rounds {
            let node = sim.nodes()[round as usize % sim.nodes().len()].id();
            let task = TaskInstance::new(sim.fresh_task_id(), 0.05);
            sim.submit_local(node, task).expect("submit");
            sim.run_until(SimTime::from_millis(100 * round), &mut NullDriver);
            sim.refresh_energy();
            report = MonitoringReport::collect(sim);
            kb.ingest_report(&report, |id| tier(round, id));
        }
        (kb, report)
    }

    #[test]
    fn ingest_populates_registry_and_history() {
        let mut sim = SimCore::new();
        let a = sim.add_node(NodeSpec::preset_edge_multicore("edge-0"));
        let t = TaskInstance::new(sim.fresh_task_id(), 1.5);
        sim.submit_local(a, t).expect("submit");
        sim.run_until(SimTime::from_secs(1), &mut NullDriver);

        let mut kb = KnowledgeBase::new();
        let report = MonitoringReport::collect(&sim);
        kb.ingest_report(&report, |_| 1);

        let rec = kb.registry().node(a).expect("record exists");
        assert_eq!(rec.name, "edge-0");
        assert_eq!(rec.max_security_tier, 1);
        assert!(rec.energy_j > 0.0);
        assert_eq!(kb.history().series("util", "edge-0").len(), 1);
        assert_eq!(kb.available_in_layer(Layer::Edge).len(), 1);
        assert!(kb.available_in_layer(Layer::Cloud).is_empty());
    }

    #[test]
    fn ingest_records_depth_and_the_windowed_miss_rate() {
        use myrtus_continuum::monitor::NodeSnapshot;
        let node = |depth: usize| NodeSnapshot {
            node: NodeId::from_raw(0),
            name: "edge-0".into(),
            layer: Layer::Edge,
            up: true,
            utilization: 0.5,
            queue_len: 1,
            run_queue_depth: depth,
            mem_free_mb: 512,
            point_idx: 0,
            energy_j: 1.0,
            completed: 0,
            reconfigurations: 0,
        };
        let report = |ms: u64, depth: usize, completed: u64, misses: u64| MonitoringReport {
            at: SimTime::from_millis(ms),
            nodes: vec![node(depth)],
            links: Vec::new(),
            tasks_completed: completed,
            deadline_misses: misses,
        };
        let mut kb = KnowledgeBase::new();
        // Rates are per window: 1/4, then 3/4 of the next four, then an
        // empty window reads 0.
        for r in [report(100, 3, 4, 1), report(200, 5, 8, 4), report(300, 2, 8, 4)] {
            kb.ingest_report(&r, |_| 0);
        }
        let h = kb.history();
        let rates: Vec<f64> =
            h.last_n("deadline_miss_rate", "", 9).iter().map(|s| s.value).collect();
        assert_eq!(rates, vec![0.25, 0.75, 0.0]);
        let depths: Vec<f64> = h.last_n("depth", "edge-0", 9).iter().map(|s| s.value).collect();
        assert_eq!(depths, vec![3.0, 5.0, 2.0]);
    }

    #[test]
    fn repeated_ingest_updates_not_duplicates() {
        let mut sim = SimCore::new();
        let a = sim.add_node(NodeSpec::preset_edge_multicore("edge-0"));
        let mut kb = KnowledgeBase::new();
        for t in [1u64, 2] {
            sim.run_until(SimTime::from_secs(t), &mut NullDriver);
            kb.ingest_report(&MonitoringReport::collect(&sim), |_| 0);
        }
        assert_eq!(kb.registry().all().len(), 1, "one record per node");
        assert_eq!(kb.history().series("util", "edge-0").len(), 2, "two history samples");
        assert_eq!(kb.registry().node(a).map(|r| r.updated_at), Some(SimTime::from_secs(2)));
    }

    #[test]
    fn ingest_leaves_the_kv_store_untouched() {
        let (mut kb, _) = ingested_rounds(40);
        assert_eq!(kb.store().revision(), 0, "no registry upsert");
        assert!(kb.store().is_empty());
        assert!(kb.store().watch_since("/", 0).is_empty(), "no watch events");
        // Command-written keys still go through the store.
        kb.put_region(0, "digest", "util=0.1", SimTime::from_secs(5));
        assert_eq!(kb.store().revision(), 1);
        assert_eq!(kb.store().watch_since("/", 0).len(), 1);
    }

    #[test]
    fn registry_records_equal_the_newest_snapshot() {
        const ROUNDS: u64 = 24;
        assert_ne!(tier(ROUNDS, NodeId::from_raw(0)), tier(1, NodeId::from_raw(0)), "tier moved");
        let (kb, last) = ingested_rounds(ROUNDS);
        let registry = kb.registry();
        assert_eq!(registry.all().len(), last.nodes.len(), "one record per node");
        let want: Vec<NodeRecord> = last
            .nodes
            .iter()
            .map(|snap| NodeRecord::from_snapshot(snap, tier(ROUNDS, snap.node), last.at))
            .collect();
        assert_eq!(registry.all(), want, "exact values, in node-id order");
        for record in &want {
            assert_eq!(registry.node(record.node).as_ref(), Some(record));
            assert_eq!(record.updated_at, last.at);
        }
        assert!(want.iter().any(|r| r.energy_j > 0.0), "energy moved");
        assert_eq!(registry.node(NodeId::from_raw(last.nodes.len() as u32)), None);
    }

    #[test]
    fn unread_streams_keep_only_their_newest_sample() {
        const ROUNDS: u64 = 30;
        let (kb, last) = ingested_rounds(ROUNDS);
        let h = kb.history();
        let at_us = last.at.as_micros();
        assert!(!last.links.is_empty());
        for snap in &last.nodes {
            let name = snap.name.as_str();
            let newest = |value: f64| vec![myrtus_obs::TsSample { at_us, value }];
            assert_eq!(h.series("energy_j", name), newest(snap.energy_j), "{name}");
            assert_eq!(h.series("queue", name), newest(snap.queue_len as f64), "{name}");
            assert_eq!(h.series("util", name).len(), ROUNDS as usize, "{name}");
            assert_eq!(h.series("depth", name).len(), ROUNDS as usize, "{name}");
            assert_eq!(h.latest("util", name).map(|s| s.value), Some(snap.utilization));
        }
        for link in &last.links {
            let label = link.link.as_raw().to_string();
            let samples = h.series("link_util", &label);
            assert_eq!(samples, vec![myrtus_obs::TsSample { at_us, value: link.utilization }]);
        }
        assert_eq!(h.series("deadline_miss_rate", "").len(), ROUNDS as usize);
    }

    #[test]
    fn kpi_samples_are_namespaced() {
        let mut kb = KnowledgeBase::new();
        kb.record_kpi("telerehab", "latency_us", SimTime::from_millis(1), 42.0);
        let latest = kb.history().latest("latency_us", "telerehab");
        assert_eq!(latest.map(|s| s.value), Some(42.0));
        assert_eq!(kb.history().latest("latency_us", "other"), None, "one series per app");
    }

    #[test]
    fn region_shards_are_disjoint_and_ordered() {
        let mut kb = KnowledgeBase::new();
        let at = SimTime::from_millis(5);
        kb.put_region(1, "digest", "util=0.9", at);
        kb.put_region(0, "digest", "util=0.1", at);
        kb.put_region(0, "burst", "r2", at);
        let shard0 = kb.region_shard(0);
        assert_eq!(
            shard0,
            vec![
                ("/region/0/burst".to_string(), "r2".to_string()),
                ("/region/0/digest".to_string(), "util=0.1".to_string()),
            ]
        );
        assert_eq!(kb.region_shard(1).len(), 1, "peer shard untouched");
        // Overwrites update in place within the shard.
        kb.put_region(0, "digest", "util=0.2", at);
        assert_eq!(kb.region_shard(0)[1].1, "util=0.2");
        assert_eq!(kb.region_shard(2), vec![], "unknown shard is empty");
    }
}
