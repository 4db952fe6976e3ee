//! The Knowledge Base facade used by MIRTO agents.
//!
//! Paper Sect. III: "all layers will share one ontological KB (logical
//! view), which can be distributed in different layers (implementation
//! view)". [`KnowledgeBase`] is that logical view — a KV store hosting
//! the Resource Registry plus a historical time-series store (the same
//! [`TimeSeriesStore`] type obs exports, ring-retained) — while the
//! [`raft`](crate::raft) module provides the distributed implementation
//! view whose consistency the experiments measure.

use std::fmt::Write as _;

use myrtus_continuum::ids::NodeId;
use myrtus_continuum::monitor::MonitoringReport;
use myrtus_continuum::node::Layer;
use myrtus_continuum::time::SimTime;
use myrtus_obs::TimeSeriesStore;

use crate::command::KvCommand;
use crate::registry::{NodeRecord, RegistryView};
use crate::store::KvStore;

/// The logical, agent-facing Knowledge Base.
///
/// Its history holds one stream per `(series, label)`: per node
/// `util`, `depth`, `energy_j` and `queue` labelled with the node
/// name, per link `link_util` labelled with the raw link id, the
/// engine-wide `deadline_miss_rate` (empty label), and whatever the
/// control plane records, such as [`KnowledgeBase::record_kpi`]'s
/// `(kpi, app)` streams. Each keeps its newest
/// [`RETENTION`](crate::history::RETENTION) (10,000) samples.
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
    history: TimeSeriesStore,
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
            history: TimeSeriesStore::new(crate::history::RETENTION),
            reported: (0, 0),
        }
    }

    /// The underlying KV store (registry keys live under `/registry/`).
    pub fn store(&self) -> &KvStore {
        &self.store
    }

    /// Mutable KV store access.
    pub fn store_mut(&mut self) -> &mut KvStore {
        &mut self.store
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
        RegistryView::new(&self.store)
    }

    /// Ingests a monitoring report: upserts every node's registry record
    /// and appends its `util`, `depth` (run-queue depth), `energy_j` and
    /// `queue` samples, each link's `link_util`, and the engine-wide
    /// `deadline_miss_rate` over the window since the previous report
    /// (misses / completions, 0 with no completions).
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
            let record = NodeRecord::from_snapshot(snap, tier, at);
            self.store.apply(&record.to_command(), at);
            for (metric, value) in [
                ("util", snap.utilization),
                ("depth", snap.run_queue_depth as f64),
                ("energy_j", snap.energy_j),
                ("queue", snap.queue_len as f64),
            ] {
                self.history.record(metric, &snap.name, at_us, value);
            }
        }
        let mut label = String::new();
        for link in &report.links {
            label.clear();
            let _ = write!(label, "{}", link.link.as_raw());
            self.history.record("link_util", &label, at_us, link.utilization);
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
