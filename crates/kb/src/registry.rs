//! The Resource Registry/Status (paper Sect. III and VI).
//!
//! The KB keeps "a snapshot of the components availability and their
//! status": per-node records with layer, capacity, utilization, security
//! capability and liveness. The [`KnowledgeBase`](crate::facade::KnowledgeBase)
//! keeps them as a column of records indexed by node, updated in place
//! on every monitoring ingest; a Raft replica keeps them encoded under
//! `/registry/nodes/<id>` in its KV store. [`RegistryView`] reads either.

use bytes::Bytes;

use myrtus_continuum::ids::NodeId;
use myrtus_continuum::monitor::NodeSnapshot;
use myrtus_continuum::node::Layer;
use myrtus_continuum::time::SimTime;

use crate::command::KvCommand;
use crate::store::KvStore;

/// One registry record describing a continuum component.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeRecord {
    /// The node.
    pub node: NodeId,
    /// Component name.
    pub name: String,
    /// Continuum layer.
    pub layer: Layer,
    /// Whether the component is up.
    pub up: bool,
    /// Core utilization in `[0, 1]` at snapshot time.
    pub utilization: f64,
    /// Queue depth at snapshot time.
    pub queue_len: usize,
    /// Free memory, MiB.
    pub mem_free_mb: u64,
    /// Highest security tier the component supports: 0 = low, 1 = medium,
    /// 2 = high (paper Table II).
    pub max_security_tier: u8,
    /// Active operating-point index.
    pub point_idx: usize,
    /// Energy consumed so far, joules.
    pub energy_j: f64,
    /// Snapshot instant.
    pub updated_at: SimTime,
}

impl NodeRecord {
    /// Builds a record from an infrastructure-monitor snapshot plus the
    /// component's supported security tier.
    pub fn from_snapshot(s: &NodeSnapshot, max_security_tier: u8, at: SimTime) -> Self {
        NodeRecord {
            node: s.node,
            name: s.name.clone(),
            layer: s.layer,
            up: s.up,
            utilization: s.utilization,
            queue_len: s.queue_len,
            mem_free_mb: s.mem_free_mb,
            max_security_tier,
            point_idx: s.point_idx,
            energy_j: s.energy_j,
            updated_at: at,
        }
    }

    /// Overwrites this record with a newer snapshot of a node of the
    /// same name, so that it equals [`NodeRecord::from_snapshot`] of it
    /// without copying the name.
    pub(crate) fn update(&mut self, s: &NodeSnapshot, max_security_tier: u8, at: SimTime) {
        debug_assert_eq!(self.name, s.name);
        self.node = s.node;
        self.layer = s.layer;
        self.up = s.up;
        self.utilization = s.utilization;
        self.queue_len = s.queue_len;
        self.mem_free_mb = s.mem_free_mb;
        self.max_security_tier = max_security_tier;
        self.point_idx = s.point_idx;
        self.energy_j = s.energy_j;
        self.updated_at = at;
    }

    /// Registry key for a node.
    pub fn key(node: NodeId) -> String {
        format!("/registry/nodes/{:06}", node.as_raw())
    }

    /// Serializes the record to its stored representation.
    pub fn encode(&self) -> Bytes {
        // A compact line format keeps the store dependency-free.
        let s = format!(
            "{}|{}|{}|{}|{:.6}|{}|{}|{}|{}|{:.6}|{}",
            self.node.as_raw(),
            self.name,
            self.layer,
            self.up as u8,
            self.utilization,
            self.queue_len,
            self.mem_free_mb,
            self.max_security_tier,
            self.point_idx,
            self.energy_j,
            self.updated_at.as_micros(),
        );
        Bytes::from(s.into_bytes())
    }

    /// Parses a stored representation.
    pub fn decode(raw: &[u8]) -> Option<NodeRecord> {
        let s = std::str::from_utf8(raw).ok()?;
        let mut it = s.split('|');
        let node = NodeId::from_raw(it.next()?.parse().ok()?);
        let name = it.next()?.to_string();
        let layer = match it.next()? {
            "edge" => Layer::Edge,
            "fog" => Layer::Fog,
            "cloud" => Layer::Cloud,
            _ => return None,
        };
        let up = it.next()? == "1";
        let utilization = it.next()?.parse().ok()?;
        let queue_len = it.next()?.parse().ok()?;
        let mem_free_mb = it.next()?.parse().ok()?;
        let max_security_tier = it.next()?.parse().ok()?;
        let point_idx = it.next()?.parse().ok()?;
        let energy_j = it.next()?.parse().ok()?;
        let updated_at = SimTime::from_micros(it.next()?.parse().ok()?);
        Some(NodeRecord {
            node,
            name,
            layer,
            up,
            utilization,
            queue_len,
            mem_free_mb,
            max_security_tier,
            point_idx,
            energy_j,
            updated_at,
        })
    }

    /// The KV command that upserts this record.
    pub fn to_command(&self) -> KvCommand {
        KvCommand::Put { key: Self::key(self.node), value: self.encode() }
    }
}

/// Read-side view over a registry: the registry section of a KV store,
/// or the KB facade's column of records.
#[derive(Debug, Clone, Copy)]
pub struct RegistryView<'a> {
    source: Source<'a>,
}

#[derive(Debug, Clone, Copy)]
enum Source<'a> {
    /// Records encoded under `/registry/nodes/` in a KV store.
    Store(&'a KvStore),
    /// Records at their node's `NodeId::index()`.
    Column(&'a [Option<NodeRecord>]),
}

impl<'a> RegistryView<'a> {
    /// Wraps a store.
    pub fn new(store: &'a KvStore) -> Self {
        RegistryView { source: Source::Store(store) }
    }

    /// Wraps a column of records indexed by `NodeId::index()`.
    pub(crate) fn column(records: &'a [Option<NodeRecord>]) -> Self {
        RegistryView { source: Source::Column(records) }
    }

    /// Reads one node's record.
    pub fn node(&self, node: NodeId) -> Option<NodeRecord> {
        match self.source {
            Source::Store(store) => {
                store.get(&NodeRecord::key(node)).and_then(|e| NodeRecord::decode(&e.value))
            }
            Source::Column(records) => records.get(node.index())?.clone(),
        }
    }

    /// All records, in node-id order.
    pub fn all(&self) -> Vec<NodeRecord> {
        match self.source {
            Source::Store(store) => store
                .range("/registry/nodes/")
                .into_iter()
                .filter_map(|(_, e)| NodeRecord::decode(&e.value))
                .collect(),
            Source::Column(records) => records.iter().flatten().cloned().collect(),
        }
    }

    /// Up nodes of a layer, least-utilized first.
    pub fn available_in_layer(&self, layer: Layer) -> Vec<NodeRecord> {
        let mut v: Vec<NodeRecord> =
            self.all().into_iter().filter(|r| r.up && r.layer == layer).collect();
        v.sort_by(|a, b| {
            a.utilization
                .partial_cmp(&b.utilization)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.node.cmp(&b.node))
        });
        v
    }

    /// Up nodes supporting at least the given security tier.
    pub fn with_security_tier(&self, min_tier: u8) -> Vec<NodeRecord> {
        self.all().into_iter().filter(|r| r.up && r.max_security_tier >= min_tier).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: u32, layer: Layer, util: f64, tier: u8, up: bool) -> NodeRecord {
        NodeRecord {
            node: NodeId::from_raw(id),
            name: format!("n{id}"),
            layer,
            up,
            utilization: util,
            queue_len: 1,
            mem_free_mb: 512,
            max_security_tier: tier,
            point_idx: 0,
            energy_j: 1.25,
            updated_at: SimTime::from_millis(10),
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let r = record(3, Layer::Fog, 0.625, 2, true);
        let decoded = NodeRecord::decode(&r.encode()).expect("decodes");
        assert_eq!(decoded, r);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(NodeRecord::decode(b"not|a|record").is_none());
        assert!(NodeRecord::decode(&[0xFF, 0xFE]).is_none());
    }

    #[test]
    fn registry_view_filters_and_sorts() {
        let mut kv = KvStore::new();
        for r in [
            record(0, Layer::Edge, 0.9, 0, true),
            record(1, Layer::Edge, 0.1, 1, true),
            record(2, Layer::Edge, 0.5, 2, false),
            record(3, Layer::Cloud, 0.2, 2, true),
        ] {
            kv.apply(&r.to_command(), SimTime::ZERO);
        }
        let view = RegistryView::new(&kv);
        assert_eq!(view.all().len(), 4);
        let edge = view.available_in_layer(Layer::Edge);
        assert_eq!(edge.len(), 2, "down node excluded");
        assert_eq!(edge[0].node, NodeId::from_raw(1), "least utilized first");
        let secure = view.with_security_tier(2);
        assert_eq!(secure.len(), 1);
        assert_eq!(secure[0].node, NodeId::from_raw(3));
        assert_eq!(view.node(NodeId::from_raw(0)).map(|r| r.queue_len), Some(1));
        assert!(view.node(NodeId::from_raw(99)).is_none());
    }

    #[test]
    fn snapshot_conversion_keeps_fields() {
        let snap = NodeSnapshot {
            node: NodeId::from_raw(7),
            name: "edge-hmpsoc-1".into(),
            layer: Layer::Edge,
            up: true,
            utilization: 0.5,
            queue_len: 3,
            run_queue_depth: 5,
            mem_free_mb: 1_024,
            point_idx: 1,
            energy_j: 9.5,
            completed: 10,
            reconfigurations: 2,
        };
        let r = NodeRecord::from_snapshot(&snap, 1, SimTime::from_secs(1));
        assert_eq!(r.node, snap.node);
        assert_eq!(r.point_idx, 1);
        assert_eq!(r.max_security_tier, 1);
        assert_eq!(r.updated_at, SimTime::from_secs(1));
    }
}
