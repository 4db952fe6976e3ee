//! The deployment proxy (Fig. 3's LIQO/Kubernetes interface).
//!
//! MIRTO "constitutes the interface among MIRTO agents and
//! Kubernetes-based orchestration achieving seamless virtualization of
//! the underlying infrastructure". The cognitive engine *decides*
//! placements; this proxy *executes* them on the low-level layer: one
//! Kubernetes-like cluster per continuum layer, peered LIQO-style
//! (edge → fog → cloud), with every placed component materialized as a
//! bound pod and every reallocation as an evict + rebind.

use std::collections::HashMap;

use myrtus_continuum::cluster::{Federation, PodSpec, ScheduleError};
use myrtus_continuum::engine::SimCore;
use myrtus_continuum::ids::{ClusterId, NodeId, PodId};
use myrtus_continuum::node::Layer;
use myrtus_obs::hash::WordMap;
use myrtus_obs::{Obs, TraceKind};
use myrtus_workload::tosca::Application;

use crate::placement::Placement;

/// One bound pod: its cluster, pod id and hosting node.
type BoundPod = (ClusterId, PodId, NodeId);

/// Executes MIRTO placements on the per-layer cluster federation.
///
/// `Clone` is part of the contract: the `mc` model checker snapshots
/// whole proxies as explicit states (the [`Obs`] handle clones
/// shallowly, which is fine — checker states carry a disabled handle).
#[derive(Debug, Clone)]
pub struct DeploymentProxy {
    federation: Federation,
    cluster_of_layer: [ClusterId; 3],
    layer_of_node: HashMap<NodeId, Layer>,
    pods: WordMap<(u16, usize), BoundPod>,
    /// Horizontal replicas per component (elastic scaling), bound in
    /// scale-up order; the primary pod in `pods` is never in here.
    replica_pods: WordMap<(u16, usize), Vec<BoundPod>>,
    binds: u64,
    moves: u64,
    task_moves: u64,
    obs: Obs,
    clock_us: u64,
}

/// Whether the seeded scale-down bug is armed: the popped replica's
/// pod is dropped from the route table but never evicted from its
/// cluster, leaking its resource requests. Compiled out of release
/// builds; off by default even in test builds.
fn mutation_leaks_scaled_down_pod() -> bool {
    #[cfg(any(test, feature = "mc-mutations"))]
    {
        crate::mutation::scale_down_leaks_pod()
    }
    #[cfg(not(any(test, feature = "mc-mutations")))]
    {
        false
    }
}

fn layer_index(layer: Layer) -> usize {
    match layer {
        Layer::Edge => 0,
        Layer::Fog => 1,
        Layer::Cloud => 2,
    }
}

impl DeploymentProxy {
    /// Builds the federation over the given core: one cluster per layer,
    /// peered upward (edge → fog → cloud) like LIQO virtual nodes.
    pub fn new(sim: &SimCore) -> Self {
        let mut by_layer: [Vec<NodeId>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        let mut layer_of_node = HashMap::new();
        for n in sim.nodes() {
            let layer = n.spec().layer();
            by_layer[layer_index(layer)].push(n.id());
            layer_of_node.insert(n.id(), layer);
        }
        let mut federation = Federation::new();
        let edge = federation.add_cluster(by_layer[0].clone());
        let fog = federation.add_cluster(by_layer[1].clone());
        let cloud = federation.add_cluster(by_layer[2].clone());
        federation.peer(edge, fog);
        federation.peer(fog, cloud);
        federation.peer(edge, cloud);
        DeploymentProxy {
            federation,
            cluster_of_layer: [edge, fog, cloud],
            layer_of_node,
            pods: WordMap::default(),
            replica_pods: WordMap::default(),
            binds: 0,
            moves: 0,
            task_moves: 0,
            obs: Obs::disabled(),
            clock_us: 0,
        }
    }

    /// Attaches an observability handle: deploy/migrate trace events and
    /// pod counters are recorded through it.
    #[must_use]
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Advances the proxy's notion of simulated time, used to stamp
    /// deploy/migrate trace events (the proxy itself has no clock).
    pub fn set_clock(&mut self, at_us: u64) {
        self.clock_us = at_us;
    }

    /// The underlying federation.
    pub fn federation(&self) -> &Federation {
        &self.federation
    }

    /// Pods bound so far.
    pub fn binds(&self) -> u64 {
        self.binds
    }

    /// Pod migrations executed so far.
    pub fn moves(&self) -> u64 {
        self.moves
    }

    /// Individual task migrations executed so far (burst-backlog
    /// drains; pods stay put, only in-flight work moves).
    pub fn task_moves(&self) -> u64 {
        self.task_moves
    }

    /// Records one task-level migration: unlike [`bind_component`]
    /// rebinds, the pod does not move — a single in-flight task was
    /// checkpointed (or killed) on `from` and resumed (or restarted) on
    /// `to`. Traced as a [`TraceKind::Migrate`] with the component set
    /// to `u32::MAX`, the task-migration sentinel.
    ///
    /// [`bind_component`]: DeploymentProxy::bind_component
    pub fn note_task_migration(&mut self, app: u16, from: NodeId, to: NodeId) {
        self.task_moves += 1;
        self.obs.counter_inc("task_migrations", "");
        self.obs.trace(
            self.clock_us,
            TraceKind::Migrate { app, component: u32::MAX, from: from.as_raw(), to: to.as_raw() },
        );
    }

    /// Pod currently backing a component.
    pub fn pod_of(&self, app: u16, component: usize) -> Option<(ClusterId, PodId, NodeId)> {
        self.pods.get(&(app, component)).copied()
    }

    fn pod_spec(app: &Application, component: usize) -> PodSpec {
        let comp = &app.components[component];
        // Request: one millicore per 0.01 Mc of per-request work, floored
        // at 100m — a simple sizing heuristic in lieu of profiling.
        let cpu = ((comp.requirements.work_mc * 100.0) as u32).clamp(100, 4_000);
        PodSpec::new(format!("{}-{}", app.name, comp.name), cpu, comp.requirements.mem_mb)
    }

    /// Materializes a full placement: binds one pod per component onto
    /// its decided node's layer cluster.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::UnknownCluster`] when a node belongs to
    /// no known layer (cannot happen for nodes created via the core).
    pub fn apply_placement(
        &mut self,
        app_id: u16,
        app: &Application,
        placement: &Placement,
    ) -> Result<(), ScheduleError> {
        for comp in 0..placement.len() {
            let node = placement.node_of(comp);
            self.bind_component(app_id, app, comp, node)?;
        }
        Ok(())
    }

    fn cluster_for(&self, node: NodeId) -> Result<ClusterId, ScheduleError> {
        self.layer_of_node
            .get(&node)
            .map(|l| self.cluster_of_layer[layer_index(*l)])
            .ok_or(ScheduleError::UnknownCluster(ClusterId::from_raw(u32::MAX)))
    }

    /// Binds (or rebinds) one component to `node`, evicting a previous
    /// pod if the component moved.
    ///
    /// # Errors
    ///
    /// Propagates cluster errors.
    pub fn bind_component(
        &mut self,
        app_id: u16,
        app: &Application,
        component: usize,
        node: NodeId,
    ) -> Result<(), ScheduleError> {
        let mut migrated_from = None;
        if let Some((cl, pod, old_node)) = self.pods.get(&(app_id, component)).copied() {
            if old_node == node {
                return Ok(());
            }
            let cluster =
                self.federation.cluster_mut(cl).ok_or(ScheduleError::UnknownCluster(cl))?;
            cluster.evict(pod)?;
            self.moves += 1;
            migrated_from = Some(old_node);
        }
        let target = self.cluster_for(node)?;
        let spec = Self::pod_spec(app, component);
        let cluster =
            self.federation.cluster_mut(target).ok_or(ScheduleError::UnknownCluster(target))?;
        let pod = cluster.bind(spec, node);
        self.binds += 1;
        self.pods.insert((app_id, component), (target, pod, node));
        match migrated_from {
            Some(from) => {
                self.obs.counter_inc("pod_migrations", "");
                self.obs.trace(
                    self.clock_us,
                    TraceKind::Migrate {
                        app: app_id,
                        component: component as u32,
                        from: from.as_raw(),
                        to: node.as_raw(),
                    },
                );
            }
            None => {
                self.obs.counter_inc("pod_binds", "");
                self.obs.trace(
                    self.clock_us,
                    TraceKind::Deploy {
                        app: app_id,
                        component: component as u32,
                        node: node.as_raw(),
                    },
                );
            }
        }
        Ok(())
    }

    /// Binds an additional horizontal replica of a component on `node`
    /// (elastic scale-up). The replica coexists with the primary pod;
    /// routing spreads stage tasks across primary + replicas. No-op
    /// error-free duplicate binds are not deduplicated — callers pick a
    /// node not already hosting the component.
    ///
    /// # Errors
    ///
    /// Propagates cluster errors.
    pub fn scale_up(
        &mut self,
        app_id: u16,
        app: &Application,
        component: usize,
        node: NodeId,
    ) -> Result<(), ScheduleError> {
        let target = self.cluster_for(node)?;
        let spec = Self::pod_spec(app, component);
        let cluster =
            self.federation.cluster_mut(target).ok_or(ScheduleError::UnknownCluster(target))?;
        let pod = cluster.bind(spec, node);
        self.binds += 1;
        self.replica_pods.entry((app_id, component)).or_default().push((target, pod, node));
        self.obs.counter_inc("pod_binds", "");
        self.obs.trace(
            self.clock_us,
            TraceKind::Deploy { app: app_id, component: component as u32, node: node.as_raw() },
        );
        Ok(())
    }

    /// Evicts the newest replica of a component (elastic scale-down),
    /// returning the node it ran on, or `None` when the component has
    /// no replicas (the primary pod is never scaled away). The eviction
    /// is bookkeeping-only with respect to the simulator: tasks already
    /// dispatched to that node — including queued retries — run to
    /// completion, so scaling down never strands in-flight work.
    ///
    /// # Errors
    ///
    /// Propagates cluster errors.
    pub fn scale_down(
        &mut self,
        app_id: u16,
        component: usize,
    ) -> Result<Option<NodeId>, ScheduleError> {
        let Some(replicas) = self.replica_pods.get_mut(&(app_id, component)) else {
            return Ok(None);
        };
        let Some((cl, pod, node)) = replicas.pop() else { return Ok(None) };
        if replicas.is_empty() {
            self.replica_pods.remove(&(app_id, component));
        }
        if !mutation_leaks_scaled_down_pod() {
            let cluster =
                self.federation.cluster_mut(cl).ok_or(ScheduleError::UnknownCluster(cl))?;
            cluster.evict(pod)?;
        }
        Ok(Some(node))
    }

    /// Nodes hosting replicas of a component, in scale-up order.
    pub fn replica_nodes(&self, app: u16, component: usize) -> impl Iterator<Item = NodeId> + '_ {
        self.replica_pods.get(&(app, component)).into_iter().flatten().map(|&(_, _, n)| n)
    }

    /// Number of live replicas of a component (excluding the primary).
    pub fn replica_count(&self, app: u16, component: usize) -> usize {
        self.replica_pods.get(&(app, component)).map_or(0, Vec::len)
    }

    /// Components (as `(app, component)`) whose pods sit on `node`.
    pub fn components_on(&self, node: NodeId) -> Vec<(u16, usize)> {
        let mut v: Vec<(u16, usize)> =
            self.pods.iter().filter(|(_, (_, _, n))| *n == node).map(|(k, _)| *k).collect();
        v.sort_unstable();
        v
    }

    /// Total CPU millicores requested on a node across the federation.
    pub fn requested_cpu_millis(&self, node: NodeId) -> u32 {
        self.federation.clusters().iter().map(|c| c.requested_cpu_millis(node)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::Placement;
    use myrtus_continuum::topology::ContinuumBuilder;
    use myrtus_workload::scenarios;

    fn fixture() -> (myrtus_continuum::topology::Continuum, Application, Placement) {
        let c = ContinuumBuilder::new().build();
        let app = scenarios::telerehab();
        let edge = c.edge()[0];
        let cloud = c.cloud()[0];
        let mut assignment = vec![edge; app.components.len()];
        *assignment.last_mut().expect("non-empty") = cloud;
        (c, app, Placement::new(assignment))
    }

    #[test]
    fn placement_materializes_as_pods() {
        let (c, app, placement) = fixture();
        let mut proxy = DeploymentProxy::new(c.sim());
        proxy.apply_placement(0, &app, &placement).expect("binds");
        assert_eq!(proxy.binds(), app.components.len() as u64);
        assert_eq!(proxy.moves(), 0);
        // Edge components land in the edge cluster, the store in cloud.
        let (edge_cl, ..) = proxy.pod_of(0, 0).expect("bound");
        let (cloud_cl, _, cloud_node) = proxy.pod_of(0, 4).expect("bound");
        assert_ne!(edge_cl, cloud_cl);
        assert_eq!(cloud_node, c.cloud()[0]);
        assert_eq!(proxy.components_on(c.edge()[0]).len(), 4);
    }

    #[test]
    fn rebinding_moves_the_pod_and_frees_requests() {
        let (c, app, placement) = fixture();
        let mut proxy = DeploymentProxy::new(c.sim());
        proxy.apply_placement(0, &app, &placement).expect("binds");
        let before = proxy.requested_cpu_millis(c.edge()[0]);
        proxy.bind_component(0, &app, 2, c.fmdcs()[0]).expect("rebinds");
        assert_eq!(proxy.moves(), 1);
        assert!(proxy.requested_cpu_millis(c.edge()[0]) < before);
        assert!(proxy.requested_cpu_millis(c.fmdcs()[0]) > 0);
        let (_, _, node) = proxy.pod_of(0, 2).expect("bound");
        assert_eq!(node, c.fmdcs()[0]);
    }

    #[test]
    fn rebinding_to_the_same_node_is_a_noop() {
        let (c, app, placement) = fixture();
        let mut proxy = DeploymentProxy::new(c.sim());
        proxy.apply_placement(0, &app, &placement).expect("binds");
        let binds = proxy.binds();
        proxy.bind_component(0, &app, 0, placement.node_of(0)).expect("noop");
        assert_eq!(proxy.binds(), binds);
        assert_eq!(proxy.moves(), 0);
    }

    #[test]
    fn replicas_scale_up_and_down_lifo_without_touching_the_primary() {
        let (c, app, placement) = fixture();
        let mut proxy = DeploymentProxy::new(c.sim());
        proxy.apply_placement(0, &app, &placement).expect("binds");
        let primary = proxy.pod_of(0, 1).expect("bound");
        assert_eq!(proxy.replica_count(0, 1), 0);
        let r1 = c.edge()[1];
        let r2 = c.fmdcs()[0];
        proxy.scale_up(0, &app, 1, r1).expect("scale up");
        proxy.scale_up(0, &app, 1, r2).expect("scale up");
        assert_eq!(proxy.replica_count(0, 1), 2);
        assert_eq!(proxy.replica_nodes(0, 1).collect::<Vec<_>>(), vec![r1, r2]);
        assert!(proxy.requested_cpu_millis(r2) > 0);
        // Scale-down pops the newest replica first.
        assert_eq!(proxy.scale_down(0, 1).expect("evicts"), Some(r2));
        assert_eq!(proxy.requested_cpu_millis(r2), 0);
        assert_eq!(proxy.scale_down(0, 1).expect("evicts"), Some(r1));
        assert_eq!(proxy.scale_down(0, 1).expect("empty"), None);
        // The primary pod never moved.
        assert_eq!(proxy.pod_of(0, 1).expect("still bound"), primary);
    }

    #[test]
    fn federation_layers_are_peered_upward() {
        let (c, _, _) = fixture();
        let proxy = DeploymentProxy::new(c.sim());
        assert_eq!(proxy.federation().clusters().len(), 3);
        // Edge cluster members are exactly the edge nodes.
        let edge_cluster = &proxy.federation().clusters()[0];
        assert_eq!(edge_cluster.members().len(), c.edge().len());
    }
}
