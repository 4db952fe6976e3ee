//! Kubernetes-like low-level orchestration with LIQO-like peering.
//!
//! The paper uses Kubernetes as the low-level orchestrator on every layer
//! and LIQO for clustering and resource virtualization across clusters.
//! This module reproduces that contract: pods with resource *requests*
//! are filtered and scored onto member nodes (least-allocated binpack,
//! like the k8s default scheduler), and a [`Federation`] lets a cluster
//! transparently offload pods to peered clusters when it runs out of
//! capacity — the LIQO "virtual node" behaviour MIRTO builds on.

use std::collections::BTreeMap;

use myrtus_obs::hash::WordMap;

use crate::engine::SimCore;
use crate::ids::{ClusterId, NodeId, PodId};

/// Resource requests and placement constraints of one pod.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PodSpec {
    name: String,
    cpu_millis: u32,
    mem_mb: u64,
    node_selector: BTreeMap<String, String>,
}

impl PodSpec {
    /// Creates a pod spec with the given CPU (millicores) and memory
    /// (MiB) requests.
    ///
    /// # Panics
    ///
    /// Panics if the CPU request is zero.
    pub fn new(name: impl Into<String>, cpu_millis: u32, mem_mb: u64) -> Self {
        assert!(cpu_millis > 0, "a pod must request some cpu");
        PodSpec { name: name.into(), cpu_millis, mem_mb, node_selector: BTreeMap::new() }
    }

    /// Adds a node-selector constraint (`label == value`).
    pub fn with_selector(mut self, label: impl Into<String>, value: impl Into<String>) -> Self {
        self.node_selector.insert(label.into(), value.into());
        self
    }

    /// Pod name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// CPU request in millicores.
    pub fn cpu_millis(&self) -> u32 {
        self.cpu_millis
    }

    /// Memory request in MiB.
    pub fn mem_mb(&self) -> u64 {
        self.mem_mb
    }

    /// Node-selector constraints.
    pub fn node_selector(&self) -> &BTreeMap<String, String> {
        &self.node_selector
    }
}

/// A bound pod.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundPod {
    /// The pod spec.
    pub spec: PodSpec,
    /// The node it is bound to.
    pub node: NodeId,
}

/// Errors from scheduling operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// No member node passed the filters (capacity, labels, liveness).
    Unschedulable {
        /// The pod that could not be placed.
        pod: String,
    },
    /// The referenced pod does not exist.
    UnknownPod(PodId),
    /// The referenced cluster does not exist.
    UnknownCluster(ClusterId),
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::Unschedulable { pod } => {
                write!(f, "pod {pod} does not fit any member node")
            }
            ScheduleError::UnknownPod(p) => write!(f, "unknown pod {p}"),
            ScheduleError::UnknownCluster(c) => write!(f, "unknown cluster {c}"),
        }
    }
}

impl std::error::Error for ScheduleError {}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Alloc {
    cpu_millis: u32,
    mem_mb: u64,
}

/// One Kubernetes-like cluster over a set of continuum nodes.
#[derive(Debug, Clone)]
pub struct Cluster {
    id: ClusterId,
    members: Vec<NodeId>,
    labels: WordMap<NodeId, BTreeMap<String, String>>,
    alloc: WordMap<NodeId, Alloc>,
    pods: WordMap<PodId, BoundPod>,
    next_pod: u64,
}

impl Cluster {
    /// Creates a cluster over the given member nodes.
    pub fn new(id: ClusterId, members: Vec<NodeId>) -> Self {
        Cluster {
            id,
            members,
            labels: WordMap::default(),
            alloc: WordMap::default(),
            pods: WordMap::default(),
            next_pod: 0,
        }
    }

    /// The cluster id.
    pub fn id(&self) -> ClusterId {
        self.id
    }

    /// Member nodes.
    pub fn members(&self) -> &[NodeId] {
        &self.members
    }

    /// Labels a member node.
    pub fn label_node(&mut self, node: NodeId, label: impl Into<String>, value: impl Into<String>) {
        self.labels.entry(node).or_default().insert(label.into(), value.into());
    }

    /// Number of bound pods.
    pub fn pod_count(&self) -> usize {
        self.pods.len()
    }

    /// CPU millicores requested on `node` by bound pods.
    pub fn requested_cpu_millis(&self, node: NodeId) -> u32 {
        self.alloc.get(&node).map_or(0, |a| a.cpu_millis)
    }

    /// Memory MiB requested on `node` by bound pods.
    pub fn requested_mem_mb(&self, node: NodeId) -> u64 {
        self.alloc.get(&node).map_or(0, |a| a.mem_mb)
    }

    fn allocatable_cpu_millis(sim: &SimCore, node: NodeId) -> u32 {
        sim.node(node).map_or(0, |n| n.spec().cores() * 1_000)
    }

    fn allocatable_mem_mb(sim: &SimCore, node: NodeId) -> u64 {
        sim.node(node).map_or(0, |n| n.spec().mem_mb())
    }

    fn filter(&self, sim: &SimCore, spec: &PodSpec, node: NodeId) -> bool {
        let Some(state) = sim.node(node) else { return false };
        if !state.is_up() {
            return false;
        }
        for (k, v) in spec.node_selector() {
            let ok = self.labels.get(&node).and_then(|l| l.get(k)).map(|x| x == v).unwrap_or(false);
            if !ok {
                return false;
            }
        }
        let alloc = self.alloc.get(&node).copied().unwrap_or_default();
        alloc.cpu_millis + spec.cpu_millis() <= Self::allocatable_cpu_millis(sim, node)
            && alloc.mem_mb + spec.mem_mb() <= Self::allocatable_mem_mb(sim, node)
    }

    /// Least-allocated score in `[0, 1]`; higher is a better (emptier)
    /// node, mirroring the k8s default scheduler's `LeastAllocated`.
    fn score(&self, sim: &SimCore, spec: &PodSpec, node: NodeId) -> f64 {
        let cap_cpu = Self::allocatable_cpu_millis(sim, node) as f64;
        let cap_mem = Self::allocatable_mem_mb(sim, node) as f64;
        let alloc = self.alloc.get(&node).copied().unwrap_or_default();
        let cpu_free = (cap_cpu - alloc.cpu_millis as f64 - spec.cpu_millis() as f64) / cap_cpu;
        let mem_free = if cap_mem > 0.0 {
            (cap_mem - alloc.mem_mb as f64 - spec.mem_mb() as f64) / cap_mem
        } else {
            0.0
        };
        (cpu_free + mem_free) / 2.0
    }

    /// Filters and scores member nodes, binding the pod on the best one.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::Unschedulable`] when no member fits.
    pub fn schedule(
        &mut self,
        sim: &SimCore,
        spec: PodSpec,
    ) -> Result<(PodId, NodeId), ScheduleError> {
        let best = self
            .members
            .iter()
            .copied()
            .filter(|&n| self.filter(sim, &spec, n))
            .map(|n| (n, self.score(sim, &spec, n)))
            .max_by(|a, b| {
                a.1.partial_cmp(&b.1)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    // Deterministic tie-break: prefer the lower node id.
                    .then_with(|| b.0.cmp(&a.0))
            });
        let Some((node, _)) = best else {
            return Err(ScheduleError::Unschedulable { pod: spec.name().to_string() });
        };
        Ok((self.bind(spec, node), node))
    }

    /// Binds a pod to a specific node without filtering (used by MIRTO
    /// when it has already made the placement decision).
    pub fn bind(&mut self, spec: PodSpec, node: NodeId) -> PodId {
        let id = PodId::from_raw(self.next_pod);
        self.next_pod += 1;
        let a = self.alloc.entry(node).or_default();
        a.cpu_millis += spec.cpu_millis();
        a.mem_mb += spec.mem_mb();
        self.pods.insert(id, BoundPod { spec, node });
        id
    }

    /// Evicts a pod, releasing its requests; returns its spec.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::UnknownPod`] if the pod is not bound.
    pub fn evict(&mut self, pod: PodId) -> Result<PodSpec, ScheduleError> {
        let bound = self.pods.remove(&pod).ok_or(ScheduleError::UnknownPod(pod))?;
        if let Some(a) = self.alloc.get_mut(&bound.node) {
            a.cpu_millis = a.cpu_millis.saturating_sub(bound.spec.cpu_millis());
            a.mem_mb = a.mem_mb.saturating_sub(bound.spec.mem_mb());
        }
        Ok(bound.spec)
    }

    /// Evicts every pod bound to `node` (drain), returning their specs in
    /// pod-id order for rescheduling.
    pub fn drain(&mut self, node: NodeId) -> Vec<PodSpec> {
        let mut ids: Vec<PodId> =
            self.pods.iter().filter(|(_, p)| p.node == node).map(|(id, _)| *id).collect();
        ids.sort_unstable();
        ids.into_iter().filter_map(|id| self.evict(id).ok()).collect()
    }

    /// Aggregate free capacity across up member nodes: (cpu millicores,
    /// memory MiB). This is what a LIQO virtual node advertises to peers.
    pub fn free_capacity(&self, sim: &SimCore) -> (u32, u64) {
        let mut cpu = 0u32;
        let mut mem = 0u64;
        for &n in &self.members {
            if sim.node(n).map(|s| s.is_up()).unwrap_or(false) {
                let a = self.alloc.get(&n).copied().unwrap_or_default();
                cpu += Self::allocatable_cpu_millis(sim, n).saturating_sub(a.cpu_millis);
                mem += Self::allocatable_mem_mb(sim, n).saturating_sub(a.mem_mb);
            }
        }
        (cpu, mem)
    }
}

/// Where a federated pod ended up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FederatedPlacement {
    /// The cluster that bound the pod.
    pub cluster: ClusterId,
    /// The pod id within that cluster.
    pub pod: PodId,
    /// The node it runs on.
    pub node: NodeId,
    /// Whether the pod was offloaded to a peer (LIQO path).
    pub offloaded: bool,
}

/// A set of clusters with LIQO-like peering relations.
#[derive(Debug, Clone, Default)]
pub struct Federation {
    clusters: Vec<Cluster>,
    peers: WordMap<ClusterId, Vec<ClusterId>>,
}

impl Federation {
    /// Creates an empty federation.
    pub fn new() -> Self {
        Federation::default()
    }

    /// Adds a cluster over `members`, returning its id.
    pub fn add_cluster(&mut self, members: Vec<NodeId>) -> ClusterId {
        let id = ClusterId::from_raw(self.clusters.len() as u32);
        self.clusters.push(Cluster::new(id, members));
        id
    }

    /// Declares a (directed) peering: `from` may offload to `to`.
    pub fn peer(&mut self, from: ClusterId, to: ClusterId) {
        self.peers.entry(from).or_default().push(to);
    }

    /// The cluster with the given id.
    pub fn cluster(&self, id: ClusterId) -> Option<&Cluster> {
        self.clusters.get(id.index())
    }

    /// Mutable cluster access.
    pub fn cluster_mut(&mut self, id: ClusterId) -> Option<&mut Cluster> {
        self.clusters.get_mut(id.index())
    }

    /// All clusters.
    pub fn clusters(&self) -> &[Cluster] {
        &self.clusters
    }

    /// Schedules locally first; on failure, offloads to peers in peering
    /// order (the LIQO virtual-node path).
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::Unschedulable`] when neither the origin
    /// cluster nor any peer can host the pod, or
    /// [`ScheduleError::UnknownCluster`] for a bad origin id.
    pub fn schedule_federated(
        &mut self,
        sim: &SimCore,
        origin: ClusterId,
        spec: PodSpec,
    ) -> Result<FederatedPlacement, ScheduleError> {
        if origin.index() >= self.clusters.len() {
            return Err(ScheduleError::UnknownCluster(origin));
        }
        match self.clusters[origin.index()].schedule(sim, spec.clone()) {
            Ok((pod, node)) => {
                return Ok(FederatedPlacement { cluster: origin, pod, node, offloaded: false })
            }
            Err(ScheduleError::Unschedulable { .. }) => {}
            Err(e) => return Err(e),
        }
        let peer_ids = self.peers.get(&origin).cloned().unwrap_or_default();
        for peer in peer_ids {
            if let Ok((pod, node)) = self.clusters[peer.index()].schedule(sim, spec.clone()) {
                return Ok(FederatedPlacement { cluster: peer, pod, node, offloaded: true });
            }
        }
        Err(ScheduleError::Unschedulable { pod: spec.name().to_string() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::NullDriver;
    use crate::node::NodeSpec;
    use crate::time::SimTime;

    fn sim_with(specs: Vec<NodeSpec>) -> (SimCore, Vec<NodeId>) {
        crate::engine::core_with_nodes(specs)
    }

    #[test]
    fn schedules_on_emptiest_node() {
        let (sim, ids) = sim_with(vec![
            NodeSpec::preset_edge_multicore("a"),
            NodeSpec::preset_edge_multicore("b"),
        ]);
        let mut cl = Cluster::new(ClusterId::from_raw(0), ids.clone());
        // Pre-load node a.
        cl.bind(PodSpec::new("warm", 2_000, 1_000), ids[0]);
        let (_, node) = cl.schedule(&sim, PodSpec::new("p", 500, 100)).expect("fits");
        assert_eq!(node, ids[1], "least-allocated prefers the empty node");
    }

    #[test]
    fn respects_node_selector() {
        let (sim, ids) =
            sim_with(vec![NodeSpec::preset_edge_multicore("a"), NodeSpec::preset_edge_hmpsoc("b")]);
        let mut cl = Cluster::new(ClusterId::from_raw(0), ids.clone());
        cl.label_node(ids[1], "accel", "fpga");
        let spec = PodSpec::new("p", 100, 10).with_selector("accel", "fpga");
        let (_, node) = cl.schedule(&sim, spec).expect("fits");
        assert_eq!(node, ids[1]);
    }

    #[test]
    fn capacity_exhaustion_is_unschedulable() {
        let (sim, ids) = sim_with(vec![NodeSpec::preset_edge_riscv("tiny")]); // 1 core
        let mut cl = Cluster::new(ClusterId::from_raw(0), ids);
        cl.schedule(&sim, PodSpec::new("big", 1_000, 10)).expect("first fits");
        let err = cl.schedule(&sim, PodSpec::new("big2", 1, 10)).expect_err("full");
        assert!(matches!(err, ScheduleError::Unschedulable { .. }));
    }

    #[test]
    fn evict_releases_requests() {
        let (sim, ids) = sim_with(vec![NodeSpec::preset_edge_riscv("tiny")]);
        let mut cl = Cluster::new(ClusterId::from_raw(0), ids.clone());
        let (pod, node) = cl.schedule(&sim, PodSpec::new("p", 1_000, 10)).expect("fits");
        assert_eq!(cl.requested_cpu_millis(node), 1_000);
        cl.evict(pod).expect("bound");
        assert_eq!(cl.requested_cpu_millis(node), 0);
        cl.schedule(&sim, PodSpec::new("p2", 1_000, 10)).expect("fits again");
    }

    #[test]
    fn drain_returns_all_pods_of_a_node() {
        let (_sim, ids) = sim_with(vec![
            NodeSpec::preset_edge_multicore("a"),
            NodeSpec::preset_edge_multicore("b"),
        ]);
        let mut cl = Cluster::new(ClusterId::from_raw(0), ids.clone());
        cl.bind(PodSpec::new("x", 100, 1), ids[0]);
        cl.bind(PodSpec::new("y", 100, 1), ids[0]);
        cl.bind(PodSpec::new("z", 100, 1), ids[1]);
        let drained = cl.drain(ids[0]);
        assert_eq!(drained.len(), 2);
        assert_eq!(cl.pod_count(), 1);
    }

    #[test]
    fn down_nodes_are_filtered_out() {
        let (mut sim, ids) = sim_with(vec![NodeSpec::preset_edge_multicore("a")]);
        sim.schedule_node_down(ids[0], SimTime::ZERO);
        sim.run_until(SimTime::from_millis(1), &mut NullDriver);
        let mut cl = Cluster::new(ClusterId::from_raw(0), ids);
        let err = cl.schedule(&sim, PodSpec::new("p", 1, 1)).expect_err("node down");
        assert!(matches!(err, ScheduleError::Unschedulable { .. }));
    }

    #[test]
    fn federation_offloads_to_peer_when_full() {
        let (sim, ids) = sim_with(vec![
            NodeSpec::preset_edge_riscv("edge"), // 1 core → fills fast
            NodeSpec::preset_fog_fmdc("fog"),    // big
        ]);
        let mut fed = Federation::new();
        let edge_cl = fed.add_cluster(vec![ids[0]]);
        let fog_cl = fed.add_cluster(vec![ids[1]]);
        fed.peer(edge_cl, fog_cl);
        let p1 =
            fed.schedule_federated(&sim, edge_cl, PodSpec::new("a", 1_000, 10)).expect("local");
        assert!(!p1.offloaded);
        let p2 =
            fed.schedule_federated(&sim, edge_cl, PodSpec::new("b", 1_000, 10)).expect("offloads");
        assert!(p2.offloaded);
        assert_eq!(p2.cluster, fog_cl);
    }

    #[test]
    fn federation_without_peers_fails_when_full() {
        let (sim, ids) = sim_with(vec![NodeSpec::preset_edge_riscv("edge")]);
        let mut fed = Federation::new();
        let cl = fed.add_cluster(vec![ids[0]]);
        fed.schedule_federated(&sim, cl, PodSpec::new("a", 1_000, 10)).expect("fits");
        let err =
            fed.schedule_federated(&sim, cl, PodSpec::new("b", 1_000, 10)).expect_err("no peers");
        assert!(matches!(err, ScheduleError::Unschedulable { .. }));
    }

    #[test]
    fn free_capacity_reflects_bindings() {
        let (sim, ids) = sim_with(vec![NodeSpec::preset_edge_multicore("a")]); // 4 cores
        let mut cl = Cluster::new(ClusterId::from_raw(0), ids);
        let (cpu0, _) = cl.free_capacity(&sim);
        assert_eq!(cpu0, 4_000);
        cl.schedule(&sim, PodSpec::new("p", 1_500, 100)).expect("fits");
        let (cpu1, _) = cl.free_capacity(&sim);
        assert_eq!(cpu1, 2_500);
    }
}
